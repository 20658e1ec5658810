package tifhint

import (
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
)

func randomPostings(rng *rand.Rand, n int, hi int64) []postings.Posting {
	out := make([]postings.Posting, n)
	for i := range out {
		s := model.Timestamp(rng.Int63n(hi))
		e := s + model.Timestamp(rng.Int63n(hi/8+1))
		if e >= model.Timestamp(hi) {
			e = model.Timestamp(hi) - 1
		}
		out[i] = postings.Posting{ID: model.ObjectID(i), Interval: model.Interval{Start: s, End: e}}
	}
	return out
}

// The id-sorted HINT must answer range queries identically to the
// temporally sorted one — footnote 8's trade changes performance, never
// results.
func TestIDHintRangeMatchesHint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := randomPostings(rng, 500, 1<<13)
	for _, m := range []int{1, 4, 8, 11} {
		dom := domain.New(0, 1<<13, m)
		reference := hint.Build(dom, entries)
		idh := newIDHint(dom)
		for _, p := range entries {
			idh.insert(p)
		}
		for trial := 0; trial < 150; trial++ {
			q := model.Canon(model.Timestamp(rng.Int63n(1<<13)), model.Timestamp(rng.Int63n(1<<13)))
			a := canonIDs(reference.RangeQuery(q, nil))
			b := canonIDs(idh.seed(model.Query{Interval: q}))
			if !model.EqualIDs(a, b) {
				t.Fatalf("m=%d q=%v: hint %d ids, idHint %d ids", m, q, len(a), len(b))
			}
		}
	}
}

func canonIDs(ids []model.ObjectID) []model.ObjectID {
	out := append([]model.ObjectID(nil), ids...)
	model.SortIDs(out)
	return model.DedupIDs(out)
}

// intersect must behave as "candidates that overlap q and are present".
func TestIDHintIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	entries := randomPostings(rng, 300, 1<<12)
	dom := domain.New(0, 1<<12, 6)
	idh := newIDHint(dom)
	present := map[model.ObjectID]model.Interval{}
	for _, p := range entries {
		idh.insert(p)
		present[p.ID] = p.Interval
	}
	for trial := 0; trial < 100; trial++ {
		q := model.Canon(model.Timestamp(rng.Int63n(1<<12)), model.Timestamp(rng.Int63n(1<<12)))
		// Candidates: a random subset of ids that overlap q, plus ids
		// that do not exist in the index at all.
		var cands []model.ObjectID
		for id, iv := range present {
			if iv.Overlaps(q) && rng.Intn(2) == 0 {
				cands = append(cands, id)
			}
		}
		ghosts := 0
		for i := 0; i < 10; i++ {
			cands = append(cands, model.ObjectID(1000+i))
			ghosts++
		}
		model.SortIDs(cands)
		k := postings.GetLater()
		got := idh.intersect(q, k, append([]model.ObjectID(nil), cands...))
		postings.PutLater(k)
		if len(got) != len(cands)-ghosts {
			t.Fatalf("trial %d: kept %d of %d (expected to drop %d ghosts)",
				trial, len(got), len(cands), ghosts)
		}
		for _, id := range got {
			if _, ok := present[id]; !ok {
				t.Fatalf("ghost id %d survived", id)
			}
		}
	}
}

func TestIDHintDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	entries := randomPostings(rng, 200, 1<<10)
	dom := domain.New(0, 1<<10, 5)
	idh := newIDHint(dom)
	for _, p := range entries {
		idh.insert(p)
	}
	victim := entries[42]
	if !idh.delete(victim) {
		t.Fatal("delete found nothing")
	}
	if idh.delete(victim) {
		t.Fatal("double delete reported success")
	}
	got := idh.seed(model.Query{Interval: victim.Interval})
	for _, id := range got {
		if id == victim.ID {
			t.Fatal("deleted id still reported")
		}
	}
	if idh.live != len(entries)-1 {
		t.Errorf("live = %d", idh.live)
	}
	// Missing entry delete.
	if idh.delete(postings.Posting{ID: 9999, Interval: victim.Interval}) {
		t.Error("delete of missing entry succeeded")
	}
}

func TestInsertByIDOutOfOrder(t *testing.T) {
	var s []postings.Posting
	for _, id := range []model.ObjectID{5, 1, 3, 2, 4} {
		s = postings.InsertByID(s, postings.Posting{ID: id})
	}
	for i := 1; i < len(s); i++ {
		if s[i].ID <= s[i-1].ID {
			t.Fatalf("not sorted: %v", s)
		}
	}
}
