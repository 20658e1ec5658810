package sharding

import (
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
	"repro/internal/testutil"
)

// TestAllocBudget pins what a tIF+Sharding query allocates: the growth of
// the least frequent element's candidate slice, which is also the result.
// Further elements gather nothing and mark into a pooled bitmap. `make
// benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 20_000, DomainLo: 0, DomainHi: 1 << 20, Dict: 50, MaxDesc: 6, Seed: 9}
	ix := New(testutil.RandomCollection(cfg))
	q := model.Query{Interval: model.NewInterval(1<<18, 3<<18), Elems: []model.ElemID{1, 4, 7}}
	want := len(ix.Query(q))
	if want == 0 {
		t.Fatal("query matches nothing")
	}
	allocbudget.Gate(t, "sharding/Index.Query", func() {
		if got := len(ix.Query(q)); got != want {
			t.Fatalf("result size changed: %d, was %d", got, want)
		}
	})
}
