package hint

import (
	"math/rand"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

// TestAllocBudget pins the steady-state allocation behavior of the HINT
// range query, the kernel every HINT-backed method pays per query. With
// a reused dst the growth amortizes to zero. `make benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := Build(domain.New(0, 1<<22, 12), randomEntries(rng, 100_000, 0, 1<<22))
	queries := make([]model.Interval, 256) // fewer than one Gate warm-up pass, so dst is full-grown before measuring
	for i := range queries {
		s := model.Timestamp(rng.Int63n(1 << 22))
		queries[i] = model.Interval{Start: s, End: s + 4096}
	}

	var dst []model.ObjectID
	i := 0
	allocbudget.Gate(t, "hint/Index.RangeQuery", func() {
		dst = ix.RangeQuery(queries[i%len(queries)], dst[:0])
		i++
	})
}

// TestAllocBudgetFilteredBitmap pins the Algorithm 3 probe path: a range
// query restricted to the ids of a candidate bitmap. The bitmap is only
// read and dst is reused, so the probe allocates nothing once warmed up.
// `make benchmem` re-records.
func TestAllocBudgetFilteredBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := randomEntries(rng, 100_000, 0, 1<<22)
	ix := Build(domain.New(0, 1<<22, 12), entries)
	var bm postings.Bitmap
	bm.Reset(model.ObjectID(len(entries)))
	for _, e := range entries {
		if e.ID%2 == 0 {
			bm.Set(e.ID)
		}
	}
	queries := make([]model.Interval, 256) // fewer than one Gate warm-up pass, so dst is full-grown before measuring
	for i := range queries {
		s := model.Timestamp(rng.Int63n(1 << 22))
		queries[i] = model.Interval{Start: s, End: s + 4096}
	}

	var dst []model.ObjectID
	i := 0
	allocbudget.Gate(t, "hint/Index.RangeQueryFilteredBitmap", func() {
		dst = ix.RangeQueryFilteredBitmap(queries[i%len(queries)], &bm, dst[:0])
		i++
	})
}
