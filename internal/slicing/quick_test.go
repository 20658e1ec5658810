package slicing

import (
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/model"
	"repro/internal/testutil"
)

// Property: any slice count, any workload shape, any query — results
// equal the oracle.
func TestSlicingQuick(t *testing.T) {
	f := func(kRaw uint8, seed int64, q0, q1 uint16, e0, e1 uint8) bool {
		k := int(kRaw%40) + 1
		cfg := testutil.CollectionConfig{N: 120, DomainLo: 0, DomainHi: 3000, Dict: 18, MaxDesc: 4, Seed: seed}
		c := testutil.RandomCollection(cfg)
		ix := New(c, WithSlices(k))
		oracle := bruteforce.New(c)
		q := model.Query{
			Interval: model.Canon(model.Timestamp(q0)%3001, model.Timestamp(q1)%3001),
			Elems:    model.NormalizeElems([]model.ElemID{model.ElemID(e0) % 18, model.ElemID(e1) % 18}),
		}
		return model.EqualIDs(testutil.Canonical(ix.Query(q)), testutil.Canonical(oracle.Query(q)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the per-object replication factor is bounded by the number of
// slices its interval spans.
func TestReplicationFactorQuick(t *testing.T) {
	f := func(kRaw uint8, seed int64) bool {
		k := int(kRaw%20) + 1
		cfg := testutil.CollectionConfig{N: 80, DomainLo: 0, DomainHi: 2000, Dict: 10, MaxDesc: 3, Seed: seed}
		c := testutil.RandomCollection(cfg)
		ix := New(c, WithSlices(k))
		var maxEntries int64
		for i := range c.Objects {
			o := &c.Objects[i]
			spanned := int64(ix.slots.Of(o.Interval.End)-ix.slots.Of(o.Interval.Start)) + 1
			maxEntries += spanned * int64(len(o.Elems))
		}
		return ix.EntryCount() == maxEntries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
