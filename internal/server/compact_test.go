package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	temporalir "repro"
	"repro/internal/bruteforce"
	"repro/internal/model"
	"repro/internal/rank"
)

// postJSON posts a body (may be empty) and decodes the JSON response.
func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return out
}

func TestAdminCompact(t *testing.T) {
	b := temporalir.NewBuilder()
	for i := 0; i < 20; i++ {
		b.Add(temporalir.Timestamp(i*10), temporalir.Timestamp(i*10+50), "alpha", fmt.Sprintf("term%d", i%4))
	}
	engine, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine))
	t.Cleanup(ts.Close)

	// Seed some churn through the HTTP surface.
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/objects", fmt.Sprintf(`{"start":%d,"end":%d,"terms":["alpha fresh"]}`, i, i+30), http.StatusCreated)
	}
	for id := 0; id < 6; id++ {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/objects/%d", ts.URL, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %d: status %d", id, resp.StatusCode)
		}
	}

	// Stats now expose the generational state.
	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	comp, ok := stats["compaction"].(map[string]any)
	if !ok {
		t.Fatalf("stats payload missing compaction: %v", stats)
	}
	if comp["tombstones"].(float64) != 6 || comp["memtable_objects"].(float64) != 4 {
		t.Fatalf("pre-compact stats: %v", comp)
	}

	// Compact and verify the state is drained.
	out := postJSON(t, ts.URL+"/admin/compact", "", http.StatusOK)
	comp = out["compaction"].(map[string]any)
	if comp["tombstones"].(float64) != 0 || comp["memtable_objects"].(float64) != 0 {
		t.Fatalf("post-compact stats not drained: %v", comp)
	}
	if comp["compactions"].(float64) != 1 {
		t.Fatalf("compactions = %v, want 1", comp["compactions"])
	}
	if comp["last_dropped"].(float64) != 6 || comp["last_merged"].(float64) != 4 {
		t.Fatalf("last_dropped/last_merged = %v/%v, want 6/4", comp["last_dropped"], comp["last_merged"])
	}

	// Deleted objects stay gone; the engine still serves searches.
	getJSON(t, ts.URL+"/objects/0", http.StatusNotFound)
	res := getJSON(t, ts.URL+"/search?start=0&end=1000&q=alpha", http.StatusOK)
	if res["count"].(float64) != 20-6+4 {
		t.Fatalf("post-compact search count = %v, want 18", res["count"])
	}
}

func TestAdminCompactConflict(t *testing.T) {
	b := temporalir.NewBuilder()
	b.Add(0, 10, "alpha")
	engine, err := b.Build(temporalir.TIF, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine))
	t.Cleanup(ts.Close)

	// A no-op compaction (nothing to merge) still answers 200.
	out := postJSON(t, ts.URL+"/admin/compact", "", http.StatusOK)
	if _, ok := out["compaction"]; !ok {
		t.Fatalf("missing compaction stats: %v", out)
	}
}

// TestTopKAfterDeleteAndCompact pins a bug the always-current statistics
// removed. The server used to refresh a scorer snapshot after every
// insert and at no other time, and compaction carried the snapshot
// across the swap — so after insert → delete → compact, top-k weighed
// terms by a collection that no longer existed until the next insert
// happened along. With no insert after the compaction, ids and score
// bits must equal a scorer built from scratch over the survivors.
func TestTopKAfterDeleteAndCompact(t *testing.T) {
	type object struct {
		start, end temporalir.Timestamp
		terms      []string
	}
	var objects []object
	b := temporalir.NewBuilder()
	for i := 0; i < 20; i++ {
		o := object{temporalir.Timestamp(i * 10), temporalir.Timestamp(i*10 + 50), []string{"alpha", fmt.Sprintf("term%d", i%4)}}
		objects = append(objects, o)
		b.Add(o.start, o.end, o.terms...)
	}
	engine, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine))
	t.Cleanup(ts.Close)

	for i := 0; i < 4; i++ {
		o := object{temporalir.Timestamp(i * 7), temporalir.Timestamp(i*7 + 90), []string{"alpha", "fresh"}}
		objects = append(objects, o)
		postJSON(t, ts.URL+"/objects", fmt.Sprintf(`{"start":%d,"end":%d,"terms":["alpha fresh"]}`, o.start, o.end), http.StatusCreated)
	}
	deleted := map[int]bool{0: true, 1: true, 4: true, 5: true, 8: true, 21: true}
	for id := range deleted {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/objects/%d", ts.URL, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %d: status %d", id, resp.StatusCode)
		}
	}
	postJSON(t, ts.URL+"/admin/compact", "", http.StatusOK)

	// The survivors, under the test's own term ids (scores depend on
	// frequencies, not on which id a term got) and in id order.
	termID := map[string]model.ElemID{}
	survivors := &model.Collection{}
	var ids []temporalir.ObjectID
	for id, o := range objects {
		if deleted[id] {
			continue
		}
		var elems []model.ElemID
		for _, term := range o.terms {
			if _, ok := termID[term]; !ok {
				termID[term] = model.ElemID(len(termID))
			}
			elems = append(elems, termID[term])
		}
		survivors.AppendObject(model.NewInterval(o.start, o.end), elems)
		ids = append(ids, temporalir.ObjectID(id))
	}
	scorer := rank.NewScorer(survivors, rank.ScorerConfig{})

	for _, probe := range []struct {
		start, end temporalir.Timestamp
		terms      []string
	}{
		{0, 300, []string{"alpha"}},
		{20, 120, []string{"alpha", "term2"}},
		{0, 60, []string{"fresh"}},
	} {
		q := model.Query{Interval: model.NewInterval(probe.start, probe.end)}
		for _, term := range probe.terms {
			q.Elems = append(q.Elems, termID[term])
		}
		q.Elems = model.NormalizeElems(q.Elems)
		want := rank.TopK(bruteforce.New(survivors), survivors, scorer, q, 5)

		res := getJSON(t, fmt.Sprintf("%s/search?start=%d&end=%d&k=5&q=%s", ts.URL, probe.start, probe.end, strings.Join(probe.terms, "+")), http.StatusOK)
		got, _ := res["hits"].([]any)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("top-5 of %v: %d hits, oracle has %d (want some)", probe.terms, len(got), len(want))
		}
		for i, h := range got {
			hit := h.(map[string]any)
			id, score := temporalir.ObjectID(hit["id"].(float64)), hit["score"].(float64)
			if id != ids[want[i].ID] || math.Float64bits(score) != math.Float64bits(want[i].Score) {
				t.Fatalf("top-5 of %v, rank %d: got id %d score %x, fresh scorer over the survivors gives id %d score %x",
					probe.terms, i, id, math.Float64bits(score), ids[want[i].ID], math.Float64bits(want[i].Score))
			}
		}
	}
}
