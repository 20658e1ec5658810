package hint

import (
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/postings"
)

// TestRangeQueryParallelMatchesSerial checks that the fanned-out scan
// returns exactly the serial result set (as sets — the parallel order is
// nondeterministic) and stays duplicate-free, across pool sizes that do
// and do not trigger the fan-out path.
func TestRangeQueryParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dom := domain.New(0, 1<<12-1, 9)
	entries := randomEntries(rng, 3000, dom.Min, dom.Max)
	ix := Build(dom, entries)
	pools := []*exec.Pool{nil, exec.NewPool(1), exec.NewPool(4), exec.NewPool(9)}
	for qi := 0; qi < 200; qi++ {
		q := randomQuery(rng, dom.Min, dom.Max)
		serial := canon(ix.RangeQuery(q, nil))
		for pi, pool := range pools {
			got := ix.RangeQueryParallel(q, pool, nil)
			if len(got) != len(serial) {
				t.Fatalf("query %v pool %d: parallel returned %d ids (duplicates or losses), serial %d",
					q, pi, len(got), len(serial))
			}
			if !model.EqualIDs(canon(got), serial) {
				t.Fatalf("query %v pool %d: parallel set differs from serial", q, pi)
			}
		}
	}
}

func TestRangeQueryFilteredParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	dom := domain.New(0, 1<<12-1, 9)
	entries := randomEntries(rng, 3000, dom.Min, dom.Max)
	ix := Build(dom, entries)
	var bm postings.Bitmap
	bm.Reset(3000)
	for id := model.ObjectID(0); id < 3000; id += 3 {
		bm.Set(id)
	}
	pool := exec.NewPool(8)
	for qi := 0; qi < 200; qi++ {
		q := randomQuery(rng, dom.Min, dom.Max)
		serial := canon(ix.RangeQueryFilteredBitmap(q, &bm, nil))
		got := ix.RangeQueryFilteredParallel(q, &bm, pool, nil)
		if len(got) != len(serial) || !model.EqualIDs(canon(got), serial) {
			t.Fatalf("query %v: filtered parallel set differs from serial", q)
		}
	}
}

func randomQuery(rng *rand.Rand, lo, hi model.Timestamp) model.Interval {
	span := int64(hi - lo + 1)
	s := lo + model.Timestamp(rng.Int63n(span))
	e := s + model.Timestamp(rng.Int63n(span/8+1))
	if e > hi {
		e = hi
	}
	return iv(s, e)
}
