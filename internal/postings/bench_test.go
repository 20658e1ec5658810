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
		dst = l.intersectIDs(cands, dst[:0])
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

// BenchmarkLater times one later-element pass per arm over the 10 000-entry
// list of benchLists, whole or cut into 16 id-sorted fragments: the merge
// (a third of the ids as candidates, one fragment), the turn to the
// bitmap at the second merge (16 fragments), each gallop direction (a
// sixty-fourth of the ids as candidates, then one fragment against all
// of them), and the bitmap arm of an unsorted pass. The kernel is pooled, so every arm runs
// allocation-free.
func BenchmarkLater(b *testing.B) {
	l, third := benchLists(10_000)
	frags := make([]List, 16)
	for i := range frags {
		frags[i] = l[i*len(l)/16 : (i+1)*len(l)/16]
	}
	all := make([]model.ObjectID, len(l))
	for i := range l {
		all[i] = l[i].ID
	}
	sparse := make([]model.ObjectID, 0, len(l)/64)
	for i := 0; i < len(l); i += 64 {
		sparse = append(sparse, l[i].ID)
	}
	for _, arm := range []struct {
		name   string
		cands  []model.ObjectID
		frags  []List
		sorted bool
	}{
		{"merge", third, []List{l}, true},
		{"merge-then-bitmap", third, frags, true},
		{"gallop-cands", sparse, []List{l}, true},
		{"gallop-frag", all, frags[:1], true},
		{"bitmap", third, frags, false},
	} {
		b.Run(arm.name, func(b *testing.B) {
			defer func(c int) { BitmapCutoff = c }(BitmapCutoff)
			BitmapCutoff = 1 << 30
			dst := make([]model.ObjectID, 0, len(arm.cands))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := GetLater()
				k.Begin(arm.cands, arm.sorted)
				for _, f := range arm.frags {
					Mark(k, f)
				}
				dst = k.Keep(dst[:0])
				PutLater(k)
			}
		})
	}
}

// BenchmarkLaterPairs compares a kernel pass over the hybrid's 16-byte
// pairs with the keep-mask merge and compaction it replaced, written out
// for that one type: the generic code reads ids through one instantiation
// per entry shape, and must be no slower.
func BenchmarkLaterPairs(b *testing.B) {
	l, cands := benchLists(10_000)
	pairs := make([]Pair, len(l))
	for i := range l {
		pairs[i] = Pair{ID: l[i].ID, Start: l[i].Interval.Start}
	}
	dst := make([]model.ObjectID, 0, len(cands))
	b.Run("generic", func(b *testing.B) {
		k := GetLater()
		defer PutLater(k)
		for n := 0; n < b.N; n++ {
			k.Begin(cands, true)
			Mark(k, pairs)
			dst = k.Keep(dst[:0])
		}
	})
	b.Run("hand", func(b *testing.B) {
		keep := make([]bool, len(cands))
		for n := 0; n < b.N; n++ {
			clear(keep)
			i, j := 0, 0
			for i < len(cands) && j < len(pairs) {
				switch {
				case cands[i] < pairs[j].ID:
					i++
				case cands[i] > pairs[j].ID:
					j++
				default:
					keep[i] = true
					i++
					j++
				}
			}
			dst = dst[:0]
			for i, k := range keep {
				if k {
					dst = append(dst, cands[i])
				}
			}
		}
	})
}
