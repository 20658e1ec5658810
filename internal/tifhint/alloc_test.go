package tifhint

import (
	"math/rand"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// TestAllocBudget pins the per-element intersection of the tIF+HINT
// merge variant: with the kernel and candidate buffer reused, it must
// stay allocation-free. The workload is chosen so every
// candidate survives — intersect compacts cands in place, so a lossy
// round would shrink the input for the next. `make benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dom := domain.New(0, 1<<20, 10)
	h := newIDHint(dom)
	n := 20_000
	cands := make([]model.ObjectID, 0, n)
	for i := 0; i < n; i++ {
		s := model.Timestamp(rng.Int63n(1 << 19))
		h.insert(postings.Posting{
			ID:       model.ObjectID(i),
			Interval: model.Interval{Start: s, End: s + model.Timestamp(rng.Int63n(1<<14)+1)},
		})
		cands = append(cands, model.ObjectID(i))
	}
	q := model.Interval{Start: 0, End: 1 << 20} // covers every entry: all candidates kept
	k := postings.GetLater()
	defer postings.PutLater(k)

	allocbudget.Gate(t, "tifhint/idHint.intersect", func() {
		if got := h.intersect(q, k, cands); len(got) != len(cands) {
			t.Fatalf("intersect dropped candidates: %d of %d", len(got), len(cands))
		}
	})
}

// TestAllocBudgetBinaryQuery pins what a binary-variant query allocates:
// the first element's range query, which grows the candidate slice that
// every probe pass then reuses as its output, and the stage span. The
// candidate bitmap is pooled, so the probes add nothing. `make benchmem`
// re-records.
func TestAllocBudgetBinaryQuery(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 20_000, DomainLo: 0, DomainHi: 1 << 20, Dict: 50, MaxDesc: 6, Seed: 9}
	ix := NewBinary(testutil.RandomCollection(cfg))
	q := model.Query{Interval: model.NewInterval(1<<18, 3<<18), Elems: []model.ElemID{1, 4, 7}}
	want := len(ix.Query(q))
	if want == 0 {
		t.Fatal("query matches nothing")
	}
	allocbudget.Gate(t, "tifhint/BinaryIndex.Query", func() {
		if got := len(ix.Query(q)); got != want {
			t.Fatalf("result size changed: %d, was %d", got, want)
		}
	})
}

// TestAllocBudgetMergeHybridQuery pins what a query of the merge and the
// hybrid variant allocates, on the collection and query of
// TestAllocBudgetBinaryQuery. `make benchmem` re-records.
func TestAllocBudgetMergeHybridQuery(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 20_000, DomainLo: 0, DomainHi: 1 << 20, Dict: 50, MaxDesc: 6, Seed: 9}
	c := testutil.RandomCollection(cfg)
	q := model.Query{Interval: model.NewInterval(1<<18, 3<<18), Elems: []model.ElemID{1, 4, 7}}
	for kernel, ix := range map[string]model.Querier{
		"tifhint/MergeIndex.Query":  NewMerge(c),
		"tifhint/HybridIndex.Query": NewHybrid(c),
	} {
		want := len(ix.Query(q))
		if want == 0 {
			t.Fatal("query matches nothing")
		}
		allocbudget.Gate(t, kernel, func() {
			if got := len(ix.Query(q)); got != want {
				t.Fatalf("%s: result size changed: %d, was %d", kernel, got, want)
			}
		})
	}
}
