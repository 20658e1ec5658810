package postings

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

func benchLists(n int) (List, []model.ObjectID) {
	rng := rand.New(rand.NewSource(3))
	l := make(List, n)
	id := uint32(0)
	for i := range l {
		id += 1 + uint32(rng.Intn(4))
		s := model.Timestamp(rng.Intn(1 << 20))
		l[i] = Posting{ID: model.ObjectID(id), Interval: model.Interval{Start: s, End: s + 1000}}
	}
	cands := make([]model.ObjectID, 0, n/3)
	for i := 0; i < n; i += 3 {
		cands = append(cands, l[i].ID)
	}
	return l, cands
}

func BenchmarkIntersectIDs(b *testing.B) {
	l, cands := benchLists(10_000)
	var dst []model.ObjectID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = l.IntersectIDs(cands, dst[:0])
	}
}

func BenchmarkTemporalFilter(b *testing.B) {
	l, _ := benchLists(10_000)
	q := model.Interval{Start: 1 << 18, End: 1<<18 + 1<<16}
	var dst []model.ObjectID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = l.TemporalFilter(q, dst[:0])
	}
}

// BenchmarkKeepSorted filters 10 000 candidates by a bitmap holding a
// seeded random half of them, the dense-probe shape where a branch per
// candidate would mispredict about as often as not.
func BenchmarkKeepSorted(b *testing.B) {
	l, _ := benchLists(10_000)
	rng := rand.New(rand.NewSource(5))
	cands := make([]model.ObjectID, len(l))
	var half []model.ObjectID
	for i := range l {
		cands[i] = l[i].ID
		if rng.Intn(2) == 0 {
			half = append(half, l[i].ID)
		}
	}
	var bm Bitmap
	bm.SetSorted(half)
	dst := make([]model.ObjectID, 0, len(cands))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = bm.KeepSorted(dst[:0], cands)
	}
}
