package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/allocbudget"
)

// deadBit is postings.DeadBit, the flag a logically deleted entry
// carries in its id; model cannot import postings.
const deadBit ObjectID = 1 << 31

// sortIDsCases are the shapes SortIDs must put in slices.Sort's order,
// each at sizes on both sides of sortCutoff.
func sortIDsCases() map[string]func(rng *rand.Rand, n int) []ObjectID {
	fill := func(n int, f func(i int) ObjectID) []ObjectID {
		ids := make([]ObjectID, n)
		for i := range ids {
			ids[i] = f(i)
		}
		return ids
	}
	return map[string]func(rng *rand.Rand, n int) []ObjectID{
		"dense": func(rng *rand.Rand, n int) []ObjectID {
			return fill(n, func(int) ObjectID { return ObjectID(rng.Intn(100_000)) })
		},
		"sorted":   func(_ *rand.Rand, n int) []ObjectID { return fill(n, func(i int) ObjectID { return ObjectID(3 * i) }) },
		"reversed": func(_ *rand.Rand, n int) []ObjectID { return fill(n, func(i int) ObjectID { return ObjectID(n - i) }) },
		"equal":    func(_ *rand.Rand, n int) []ObjectID { return fill(n, func(int) ObjectID { return 77 }) },
		"zeros":    func(_ *rand.Rand, n int) []ObjectID { return fill(n, func(int) ObjectID { return 0 }) },
		"dups": func(rng *rand.Rand, n int) []ObjectID {
			return fill(n, func(int) ObjectID { return ObjectID(rng.Intn(5)) })
		},
		"full": func(rng *rand.Rand, n int) []ObjectID {
			return fill(n, func(int) ObjectID { return ObjectID(rng.Uint32()) })
		},
		"narrow-high": func(rng *rand.Rand, n int) []ObjectID {
			return fill(n, func(int) ObjectID { return 1<<30 + ObjectID(rng.Intn(300)) })
		},
		"dead": func(rng *rand.Rand, n int) []ObjectID {
			return fill(n, func(int) ObjectID {
				id := ObjectID(rng.Intn(50_000))
				if rng.Intn(3) == 0 {
					id |= deadBit
				}
				return id
			})
		},
		"max": func(rng *rand.Rand, n int) []ObjectID {
			return fill(n, func(i int) ObjectID {
				if i%7 == 0 {
					return math.MaxUint32
				}
				return ObjectID(rng.Intn(1 << 17))
			})
		},
		"runs": func(_ *rand.Rand, n int) []ObjectID {
			// Id-sorted runs one after another, as irHINT-perf's
			// divisions return them.
			return fill(n, func(i int) ObjectID { return ObjectID((i%40)*1000 + i/40) })
		},
	}
}

// checkSortIDs sorts a copy of ids with SortIDs and with slices.Sort and
// fails on any difference.
func checkSortIDs(t *testing.T, ids []ObjectID) {
	t.Helper()
	got := slices.Clone(ids)
	want := slices.Clone(ids)
	SortIDs(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("SortIDs of %d ids differs from slices.Sort", len(ids))
	}
}

func TestSortIDs(t *testing.T) {
	sizes := []int{0, 1, 2, sortCutoff - 1, sortCutoff, sortCutoff + 1, 1000, 4096, 70_000}
	for name, gen := range sortIDsCases() {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				checkSortIDs(t, gen(rand.New(rand.NewSource(int64(n))), n))
			})
		}
	}
}

// TestSortIDsConcurrent sorts from many goroutines at once, each through
// a pooled scratch; run it under -race.
func TestSortIDsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				n := sortCutoff + rng.Intn(5000)
				ids := make([]ObjectID, n)
				for j := range ids {
					ids[j] = ObjectID(rng.Intn(1 << (8 + rng.Intn(20))))
				}
				want := slices.Clone(ids)
				slices.Sort(want)
				SortIDs(ids)
				if !slices.Equal(ids, want) {
					t.Errorf("goroutine %d: SortIDs of %d ids differs from slices.Sort", seed, n)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// FuzzSortIDs decodes the input as little-endian ids, widened to past the
// cutoff by repetition with a per-copy offset, and checks SortIDs against
// slices.Sort.
func FuzzSortIDs(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80}, uint8(100))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, copies uint8) {
		var base []ObjectID
		for i := 0; i+4 <= len(data); i += 4 {
			base = append(base, ObjectID(data[i])|ObjectID(data[i+1])<<8|ObjectID(data[i+2])<<16|ObjectID(data[i+3])<<24)
		}
		ids := slices.Clone(base)
		for c := 0; c < int(copies) && len(base) > 0; c++ {
			for _, id := range base {
				ids = append(ids, id+ObjectID(c)*ObjectID(len(base)))
			}
		}
		checkSortIDs(t, ids)
	})
}

func TestAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]ObjectID, 4096)
	for i := range src {
		src[i] = ObjectID(rng.Intn(100_000))
	}
	ids := make([]ObjectID, len(src))
	allocbudget.Gate(t, "model/SortIDs", func() {
		copy(ids, src)
		SortIDs(ids)
	})
}

// BenchmarkSortIDs sorts unsorted dense ids (a 100 k-object id space) at
// sizes around the cutoff and beyond, against slices.Sort: the sweep
// behind sortCutoff.
func BenchmarkSortIDs(b *testing.B) {
	for _, n := range []int{64, 128, 192, 256, 384, 4096, 65536} {
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]ObjectID, n)
		for i := range src {
			src[i] = ObjectID(rng.Intn(100_000))
		}
		ids := make([]ObjectID, n)
		for _, k := range []struct {
			name string
			sort func([]ObjectID)
		}{{"SortIDs", SortIDs}, {"slices.Sort", slices.Sort[[]ObjectID]}} {
			b.Run(fmt.Sprintf("%s/%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(ids, src)
					k.sort(ids)
				}
			})
		}
	}
}
