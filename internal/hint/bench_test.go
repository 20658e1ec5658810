package hint

import (
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/model"
)

// benchIndex builds a 100K-interval HINT once per benchmark binary.
func benchIndex(b *testing.B) (*Index, []model.Interval) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	entries := randomEntries(rng, 100_000, 0, 1<<22)
	ix := Build(domain.New(0, 1<<22, 12), entries)
	queries := make([]model.Interval, 1024)
	for i := range queries {
		s := model.Timestamp(rng.Int63n(1 << 22))
		queries[i] = model.Interval{Start: s, End: s + 4096} // ~0.1% extent
	}
	return ix, queries
}

func BenchmarkRangeQuery(b *testing.B) {
	ix, queries := benchIndex(b)
	var dst []model.ObjectID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.RangeQuery(queries[i%len(queries)], dst[:0])
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	entries := randomEntries(rng, 50_000, 0, 1<<20)
	ix := Build(domain.New(0, 1<<20, 10), entries)
	extra := randomEntries(rng, 4096, 0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := extra[i%len(extra)]
		p.ID = model.ObjectID(100_000 + i)
		ix.Insert(p)
	}
}
