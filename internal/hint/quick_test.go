package hint

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

// Property: for any m, any interval set and any query, RangeQuery equals
// the naive scan. testing/quick drives the shapes; a fixed PRNG expands
// each shape into a concrete workload.
func TestRangeQueryQuick(t *testing.T) {
	f := func(mRaw uint8, nRaw uint8, seed int64, q0, q1 uint16) bool {
		m := int(mRaw%12) + 1
		n := int(nRaw)%150 + 1
		rng := rand.New(rand.NewSource(seed))
		entries := randomEntries(rng, n, 0, 1<<15)
		ix := Build(domain.New(0, 1<<15, m), entries)
		q := model.Canon(model.Timestamp(q0)%(1<<15), model.Timestamp(q1)%(1<<15))
		got := canon(ix.RangeQuery(q, nil))
		want := naiveOverlap(entries, q)
		return model.EqualIDs(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: insert-then-delete of the same entry leaves query results
// unchanged for any query.
func TestInsertDeleteInverseQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := randomEntries(rng, 200, 0, 8191)
	dom := domain.New(0, 8191, 8)
	f := func(s0, d0 uint16, q0, q1 uint16) bool {
		ix := Build(dom, base)
		s := model.Timestamp(s0) % 8192
		e := s + model.Timestamp(d0)%512
		if e > 8191 {
			e = 8191
		}
		extra := postings.Posting{ID: 9999, Interval: model.Interval{Start: s, End: e}}
		q := model.Canon(model.Timestamp(q0)%8192, model.Timestamp(q1)%8192)
		before := canon(ix.RangeQuery(q, nil))
		ix.Insert(extra)
		if !ix.Delete(extra) {
			return false
		}
		after := canon(ix.RangeQuery(q, nil))
		return model.EqualIDs(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: EntryCount is bounded by the theoretical replication limit of
// at most 2 partitions per level.
func TestReplicationBoundQuick(t *testing.T) {
	f := func(mRaw uint8, seed int64) bool {
		m := int(mRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		entries := randomEntries(rng, 100, 0, 1<<14)
		ix := Build(domain.New(0, 1<<14, m), entries)
		return ix.EntryCount() <= int64(len(entries))*2*int64(m+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the level directory lookup agrees with a linear scan.
func TestLevelStoreQuick(t *testing.T) {
	f := func(keys []uint16, probe uint16) bool {
		var ls Directory[Partition]
		for _, k := range keys {
			p := ls.GetOrCreate(uint32(k))
			if p == nil {
				return false
			}
		}
		// Directory stays sorted and deduplicated.
		for i := 1; i < len(ls.Keys); i++ {
			if ls.Keys[i] <= ls.Keys[i-1] {
				return false
			}
		}
		want := false
		for _, k := range keys {
			if k == probe {
				want = true
			}
		}
		return (ls.Get(uint32(probe)) != nil) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
