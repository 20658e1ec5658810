package compress

import (
	"math/rand"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// TestAllocBudget pins the streaming decode step: a value iterator over
// an encoded list, reset at the end of each pass, must never allocate.
// `make benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := EncodeList(randomList(rng, 10_000))

	it := Iterator{buf: buf}
	var p postings.Posting
	allocbudget.Gate(t, "compress/Iterator.Next", func() {
		if !it.Next(&p) {
			it.Reset()
		}
	})
}

// TestAllocBudgetQuery pins what a compressed-variant query allocates:
// the candidate buffer pre-sized to the first list's entry count and the
// growth of the per-list output, never a decode buffer. `make benchmem`
// re-records.
func TestAllocBudgetQuery(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 20_000, DomainLo: 0, DomainHi: 1 << 20, Dict: 50, MaxDesc: 6, Seed: 9}
	ix := NewTIF(testutil.RandomCollection(cfg))
	q := model.Query{Interval: model.NewInterval(1<<18, 3<<18), Elems: []model.ElemID{1, 4, 7}}
	want := len(ix.Query(q))
	if want == 0 {
		t.Fatal("query matches nothing")
	}
	allocbudget.Gate(t, "compress/TIF.Query", func() {
		if got := len(ix.Query(q)); got != want {
			t.Fatalf("result size changed: %d, was %d", got, want)
		}
	})
}
