package core

import (
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
	"repro/internal/testutil"
)

// TestAllocBudget pins what a query of either variant allocates: the
// growth of its result slice and of one candidate buffer shared by every
// division — no per-division candidate set, nothing to sort. The query
// spans half the domain with two frequent elements, so it crosses
// comparison-free divisions and both kinds of range-restricted ones.
// `make benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 20_000, DomainLo: 0, DomainHi: 1 << 20, Dict: 50, MaxDesc: 6, Seed: 9}
	c := testutil.RandomCollection(cfg)
	q := model.Query{Interval: model.NewInterval(1<<18, 3<<18), Elems: []model.ElemID{1, 4}}
	for kernel, ix := range map[string]testutil.QueryIndex{
		"core/PerfIndex.Query": NewPerf(c, WithM(8)),
		"core/SizeIndex.Query": NewSize(c, WithM(8)),
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
