package compress

import (
	"math/rand"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/postings"
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
