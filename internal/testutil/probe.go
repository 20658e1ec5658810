package testutil

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/model"
)

// ProbeWorkload is a corpus, its updates and an ordered query sequence
// built to catch state leaking between the pooled candidate bitmaps of
// consecutive queries, and bitmaps sized one word short:
//   - ids follow time (object i starts at 8·i), so a query's window
//     decides the universe its candidates span;
//   - ProbeEdgeElem is carried only by objects at 64-bit word edges
//     (0, 1, 63, 64, 65, 127, 128, ...), each living at most 3 ticks, so
//     the edge queries' candidate sets top out at exactly such an id;
//   - each edge query follows a full-domain query over the frequent
//     elements 1-3, whose candidates reach the largest ids;
//   - the inserted objects start early and live long, so entries with
//     ids far above a narrow query's candidates qualify in its window;
//   - a quarter of the other objects are deleted, edge objects never.
type ProbeWorkload struct {
	Base    *model.Collection
	Inserts []model.Object
	Deletes []model.Object
	Queries []model.Query
}

// ProbeEdgeElem is the element only word-edge objects carry.
const ProbeEdgeElem model.ElemID = 0

const (
	probeBase    = 1200 // bulk-built objects
	probeInserts = 300
	probeStep    = 8 // ticks between consecutive objects' starts
)

// NewProbeWorkload builds the seeded workload.
func NewProbeWorkload(seed int64) ProbeWorkload {
	rng := rand.New(rand.NewSource(seed))
	edge := map[int]bool{0: true, 1: true}
	for w := 64; w+1 < probeBase; w += 64 {
		edge[w-1], edge[w], edge[w+1] = true, true, true
	}
	frequent := func(must bool) []model.ElemID {
		var es []model.ElemID
		for e := model.ElemID(1); e <= 3; e++ {
			if rng.Intn(2) == 0 {
				es = append(es, e)
			}
		}
		if must && len(es) == 0 {
			es = append(es, model.ElemID(1+rng.Intn(3)))
		}
		return es
	}
	full := &model.Collection{DictSize: 10}
	for i := 0; i < probeBase; i++ {
		start := int64(i * probeStep)
		if edge[i] {
			full.AppendObject(model.NewInterval(start, start+rng.Int63n(4)), append(frequent(true), ProbeEdgeElem))
			continue
		}
		var dur int64
		switch r := rng.Intn(20); {
		case r < 14:
			dur = rng.Int63n(13)
		case r < 17:
			dur = rng.Int63n(200)
		case r < 19:
			dur = rng.Int63n(2000)
		}
		es := frequent(false)
		if len(es) == 0 || rng.Intn(2) == 0 {
			es = append(es, model.ElemID(4+rng.Intn(6)))
		}
		full.AppendObject(model.NewInterval(start, start+dur), es)
	}
	for i := 0; i < probeInserts; i++ {
		start := rng.Int63n(probeBase * probeStep / 2)
		full.AppendObject(model.NewInterval(start, start+rng.Int63n(3000)), frequent(true))
	}
	w := ProbeWorkload{
		Base:    &model.Collection{Objects: full.Objects[:probeBase], DictSize: full.DictSize},
		Inserts: full.Objects[probeBase:],
	}
	for _, i := range rng.Perm(len(full.Objects))[:len(full.Objects)/4] {
		if !edge[i] {
			w.Deletes = append(w.Deletes, full.Objects[i])
		}
	}
	hi := model.Timestamp(probeBase*probeStep + 3000)
	for x := 0; x < probeBase; x++ {
		if !edge[x] {
			continue
		}
		wide := model.Query{Interval: model.NewInterval(0, hi), Elems: frequent(true)}
		// Edge objects x-1 and x fall in the window; x+1 starts after it
		// and every earlier edge object has ended before it.
		at := model.Timestamp(x * probeStep)
		win := model.NewInterval(max(0, at-40), at+1)
		w.Queries = append(w.Queries, wide,
			model.Query{Interval: win, Elems: []model.ElemID{ProbeEdgeElem, model.ElemID(1 + rng.Intn(3))}},
			model.Query{Interval: win, Elems: []model.ElemID{ProbeEdgeElem, 1, 2}},
			model.Query{Interval: win, Elems: []model.ElemID{ProbeEdgeElem, 1, 2, 3}},
			model.Query{Interval: win, Elems: []model.ElemID{1, 2}},
		)
	}
	cfg := CollectionConfig{DomainLo: 0, DomainHi: int64(hi), Dict: full.DictSize}
	w.Queries = append(w.Queries, RandomQueries(cfg, 100, seed+1)...)
	return w
}

// CheckProbeWorkload applies w's inserts and deletes to ix, built over
// w.Base, then runs the query sequence in order through ix.Query on the
// calling goroutine, so one pooled bitmap serves consecutive queries.
// Every result must match the brute-force oracle's by SHA-256 digest.
func CheckProbeWorkload(t *testing.T, w ProbeWorkload, ix model.Index) {
	t.Helper()
	oracle := bruteforce.New(w.Base)
	for _, o := range w.Inserts {
		ix.Insert(o)
		oracle.Insert(o)
	}
	for _, o := range w.Deletes {
		ix.Delete(o)
		oracle.Delete(o.ID)
	}
	for i, q := range w.Queries {
		want := oracle.Query(q)
		if got := ix.Query(q); ResultChecksum(got) != ResultChecksum(want) {
			t.Fatalf("query %d (%v elems=%v): got %v, want %v", i, q.Interval, q.Elems, Canonical(got), Canonical(want))
		}
	}
}
