package core

import (
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
	"repro/internal/testutil"
)

// TestAllocBudget pins what a size-variant query allocates: the growth of
// its result slice and of one survivor buffer shared by every division —
// no per-division candidate set, nothing to sort. The query spans half the
// domain with two frequent elements, so it crosses comparison-free
// divisions and both kinds of range-restricted ones. `make benchmem`
// re-records.
func TestAllocBudget(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 20_000, DomainLo: 0, DomainHi: 1 << 20, Dict: 50, MaxDesc: 6, Seed: 9}
	ix := NewSize(testutil.RandomCollection(cfg), WithM(8))
	q := model.Query{Interval: model.NewInterval(1<<18, 3<<18), Elems: []model.ElemID{1, 4}}
	want := len(ix.Query(q))
	if want == 0 {
		t.Fatal("query matches nothing")
	}
	allocbudget.Gate(t, "core/SizeIndex.Query", func() {
		if got := len(ix.Query(q)); got != want {
			t.Fatalf("result size changed: %d, was %d", got, want)
		}
	})
}
