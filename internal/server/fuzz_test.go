package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSearchRequest drives arbitrary query strings through GET /search
// and GET /timeline and arbitrary bodies through POST /search/batch, on
// a single-store and a sharded server: no input may panic or answer 5xx,
// and every 200 must be JSON that encoding/json decodes.
func FuzzSearchRequest(f *testing.F) {
	for _, seed := range []struct{ query, body string }{
		{"start=0&end=100&q=alpha", `{"start":0,"end":100,"queries":["alpha","beta gamma"]}`},
		{"start=0&end=100&q=alpha+beta&k=2&buckets=3", `{"start":0,"end":100,"queries":["nosuch"]}`},
		{"start=10&end=0&q=alpha", `{"start":10,"end":0,"queries":["alpha"]}`},
		{"start=-9223372036854775808&end=9223372036854775807&q=alpha&k=1&buckets=7", `{"start":-9223372036854775808,"end":9223372036854775807,"queries":["alpha"]}`},
		{"start=1&end=9223372036854775807&q=alpha&k=3&buckets=10000", `{"start":1,"end":9223372036854775807,"queries":["alpha"]}`},
		{"start=0&end=100&q=alpha&k=9223372036854775807", `{"queries":[]}`},
		{"start=0&end=1&q=%ff%fe&k=-1&buckets=x", `not json`},
		{"%zz&;&&==&start=&end=", `{"start":0,"end":100,"queries":["<b>&amp;</b>", ""]}`},
	} {
		f.Add(seed.query, seed.body)
	}
	servers := []*Server{New(buildEngine(f)), New(buildShardedEngine(f))}
	f.Fuzz(func(t *testing.T, query, body string) {
		for _, srv := range servers {
			for _, path := range []string{"/search", "/timeline"} {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				req.URL.RawQuery = query
				checkFuzzReply(t, srv, req)
			}
			checkFuzzReply(t, srv, httptest.NewRequest(http.MethodPost, "/search/batch", strings.NewReader(body)))
		}
	})
}

func checkFuzzReply(t *testing.T, srv *Server, req *http.Request) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("%s %s?%s: status %d: %s", req.Method, req.URL.Path, req.URL.RawQuery, rec.Code, rec.Body)
	}
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); rec.Code == http.StatusOK && err != nil {
		t.Fatalf("%s %s?%s: 200 body does not decode (%v): %q", req.Method, req.URL.Path, req.URL.RawQuery, err, rec.Body)
	}
}
