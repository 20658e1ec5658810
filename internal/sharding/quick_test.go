package sharding

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// Property: any shard budget (including unlimited), any workload shape,
// any query — results equal the oracle.
func TestShardingQuick(t *testing.T) {
	f := func(budgetRaw uint8, seed int64, q0, q1 uint16, e0 uint8) bool {
		budget := int(budgetRaw % 20) // 0 = unlimited ideal shards
		cfg := testutil.CollectionConfig{N: 120, DomainLo: 0, DomainHi: 3000, Dict: 15, MaxDesc: 4, Seed: seed}
		c := testutil.RandomCollection(cfg)
		ix := New(c, WithMaxShards(budget))
		oracle := bruteforce.New(c)
		q := model.Query{
			Interval: model.Canon(model.Timestamp(q0)%3001, model.Timestamp(q1)%3001),
			Elems:    []model.ElemID{model.ElemID(e0) % 15},
		}
		return model.EqualIDs(testutil.Canonical(ix.Query(q)), testutil.Canonical(oracle.Query(q)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: sharding never replicates — entries equal total postings.
func TestNoReplicationQuick(t *testing.T) {
	f := func(budgetRaw uint8, seed int64) bool {
		budget := int(budgetRaw % 10)
		cfg := testutil.CollectionConfig{N: 90, DomainLo: 0, DomainHi: 1500, Dict: 8, MaxDesc: 4, Seed: seed}
		c := testutil.RandomCollection(cfg)
		ix := New(c, WithMaxShards(budget))
		want := 0
		for i := range c.Objects {
			want += len(c.Objects[i].Elems)
		}
		got := 0
		for e := range ix.shards {
			for i := range ix.shards[e] {
				got += len(ix.shards[e][i].entries)
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the sort-once query stays exact where the staircase is gone.
// A tight budget merges shards at build, out-of-order inserts break more,
// and a quarter of the objects are deleted, so candidates are flagged
// through non-ideal shards holding dead entries; 1-, 2- and 4-element
// queries equal the oracle, and the run must have walked such shards with
// plans of every length or the property is vacuous.
func TestQueryOverNonIdealShardsWithDeadEntries(t *testing.T) {
	var walked [5]int // by query elements: non-ideal shards with a dead entry under a queried element
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testutil.CollectionConfig{N: 300, DomainLo: 0, DomainHi: 3000, Dict: 8, MaxDesc: 5, Seed: seed}
		full := testutil.RandomCollection(cfg)
		cut := len(full.Objects) * 2 / 3
		base := &model.Collection{Objects: full.Objects[:cut], DictSize: full.DictSize}
		ix := New(base, WithMaxShards(1+int(seed%4)))
		oracle := bruteforce.New(base)
		for _, o := range full.Objects[cut:] {
			ix.Insert(o)
			oracle.Insert(o)
		}
		for _, i := range rng.Perm(len(full.Objects))[:len(full.Objects)/4] {
			ix.Delete(full.Objects[i])
			oracle.Delete(full.Objects[i].ID)
		}
		for qi, n := range []int{1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2, 4} {
			var elems []model.ElemID
			for _, e := range rng.Perm(cfg.Dict)[:n] {
				elems = append(elems, model.ElemID(e))
			}
			a, b := rng.Int63n(3001), rng.Int63n(3001)
			q := model.Query{Interval: model.Canon(model.Timestamp(a), model.Timestamp(b)), Elems: model.NormalizeElems(elems)}
			got, want := testutil.Canonical(ix.Query(q)), testutil.Canonical(oracle.Query(q))
			if !model.EqualIDs(got, want) {
				t.Fatalf("seed %d query %d (%v elems=%v): got %v, want %v", seed, qi, q.Interval, q.Elems, got, want)
			}
			for _, e := range q.Elems {
				for i := range ix.shards[e] {
					s := &ix.shards[e][i]
					if !s.ideal && slices.ContainsFunc(s.entries, func(p postings.Posting) bool { return postings.IsDead(p.ID) }) {
						walked[n]++
					}
				}
			}
		}
	}
	if walked[1] == 0 || walked[2] == 0 || walked[4] == 0 {
		t.Fatalf("vacuous: non-ideal shards with dead entries under 1/2/4-element queries: %d/%d/%d", walked[1], walked[2], walked[4])
	}
	t.Logf("non-ideal shards with dead entries under 1/2/4-element queries: %d/%d/%d", walked[1], walked[2], walked[4])
}
