package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	temporalir "repro"
	"repro/internal/server"
)

// TestRawClientMatchesNetHTTP checks the raw keep-alive client against
// net/http.Client: both must read byte-identical bodies from /search
// (short, Content-Length-framed replies and long, chunked ones) and
// from /search/batch, over one reused connection.
func TestRawClientMatchesNetHTTP(t *testing.T) {
	poolFloor = 1 << 10
	sz := smokeSizes(workloads[3]) // the mixed pool has the wide, long-reply queries
	in := makeInputs(sz, 11, 0, 1)
	eng, err := temporalir.EngineFromCollection(in.base, temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := serveLoopback(server.New(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lb.shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	raw, err := dialRaw(lb.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()

	kinds := map[opKind]int{}
	chunked, framed := 0, 0
	for i := range in.lists[0] {
		o := &in.lists[0][i]
		if !o.kind.isRead() {
			continue
		}
		kinds[o.kind]++
		status, got, err := raw.do(o.req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("op %d: raw client: status %d, %v", i, status, err)
		}
		req, err := parseRequest(o.req)
		if err != nil {
			t.Fatal(err)
		}
		req.RequestURI, req.URL.Scheme, req.URL.Host = "", "http", lb.addr
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength < 0 {
			chunked++
		} else {
			framed++
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d (kind %d): raw client read %d bytes, net/http %d; bodies differ", i, o.kind, len(got), len(want))
		}
	}
	if kinds[opSearch] == 0 || kinds[opBatch] == 0 {
		t.Errorf("list exercised kinds %v; want searches and batches", kinds)
	}
	if chunked == 0 || framed == 0 {
		t.Errorf("%d chunked and %d length-framed replies; want both", chunked, framed)
	}
}
