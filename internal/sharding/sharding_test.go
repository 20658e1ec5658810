package sharding

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

func runningExample() *model.Collection {
	var c model.Collection
	c.AppendObject(model.Interval{Start: 10, End: 15}, []model.ElemID{0, 1, 2}) // o1
	c.AppendObject(model.Interval{Start: 2, End: 5}, []model.ElemID{0, 2})      // o2
	c.AppendObject(model.Interval{Start: 0, End: 2}, []model.ElemID{1})         // o3
	c.AppendObject(model.Interval{Start: 0, End: 15}, []model.ElemID{0, 1, 2})  // o4
	c.AppendObject(model.Interval{Start: 3, End: 7}, []model.ElemID{1, 2})      // o5
	c.AppendObject(model.Interval{Start: 2, End: 11}, []model.ElemID{2})        // o6
	c.AppendObject(model.Interval{Start: 4, End: 14}, []model.ElemID{0, 2})     // o7
	c.AppendObject(model.Interval{Start: 2, End: 3}, []model.ElemID{2})         // o8
	return &c
}

func TestRunningExample(t *testing.T) {
	ix := New(runningExample())
	got := ix.Query(model.Query{Interval: model.Interval{Start: 4, End: 6}, Elems: []model.ElemID{0, 2}})
	want := []model.ObjectID{1, 3, 6}
	if !model.EqualIDs(testutil.Canonical(got), want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIdealShardsStaircase(t *testing.T) {
	// With no budget every shard must be ideal and satisfy the staircase
	// property: both starts and ends non-decreasing.
	rng := rand.New(rand.NewSource(9))
	var c model.Collection
	for i := 0; i < 300; i++ {
		s := model.Timestamp(rng.Intn(1000))
		e := s + model.Timestamp(rng.Intn(200))
		c.AppendObject(model.Interval{Start: s, End: e}, []model.ElemID{0})
	}
	ix := New(&c, WithMaxShards(0))
	if ix.ShardCount(0) == 0 {
		t.Fatal("no shards built")
	}
	for i := 0; i < ix.ShardCount(0); i++ {
		if !ix.Ideal(0, i) {
			t.Fatalf("shard %d not ideal with unlimited budget", i)
		}
		entries := ix.shards[0][i].entries
		for k := 1; k < len(entries); k++ {
			if entries[k].Interval.Start < entries[k-1].Interval.Start {
				t.Fatalf("shard %d: starts decrease at %d", i, k)
			}
			if entries[k].Interval.End < entries[k-1].Interval.End {
				t.Fatalf("shard %d: staircase violated at %d", i, k)
			}
		}
	}
}

func TestBudgetEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c model.Collection
	for i := 0; i < 500; i++ {
		s := model.Timestamp(rng.Intn(1000))
		e := s + model.Timestamp(rng.Intn(500))
		c.AppendObject(model.Interval{Start: s, End: e}, []model.ElemID{0})
	}
	ix := New(&c, WithMaxShards(4))
	if n := ix.ShardCount(0); n > 4 {
		t.Errorf("shard count %d exceeds budget 4", n)
	}
	// Merged shards must still be start-sorted.
	for i := 0; i < ix.ShardCount(0); i++ {
		entries := ix.shards[0][i].entries
		if !sort.SliceIsSorted(entries, func(a, b int) bool {
			return entries[a].Interval.Start < entries[b].Interval.Start
		}) {
			t.Errorf("merged shard %d lost start order", i)
		}
	}
}

func TestOracleEquivalence(t *testing.T) {
	for _, budget := range []int{0, 2, 8, 64} {
		for seed := int64(0); seed < 3; seed++ {
			cfg := testutil.DefaultConfig(seed)
			c := testutil.RandomCollection(cfg)
			ix := New(c, WithMaxShards(budget))
			testutil.CheckAgainstOracle(t, "sharding", ix, c, testutil.RandomQueries(cfg, 150, seed+1))
		}
	}
}

func TestUpdates(t *testing.T) {
	cfg := testutil.DefaultConfig(31)
	testutil.CheckUpdates(t, "sharding", func(c *model.Collection) model.Index {
		return New(c)
	}, cfg)
}

func TestInsertPreservesShardInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var c model.Collection
	for i := 0; i < 200; i++ {
		s := model.Timestamp(rng.Intn(1000))
		c.AppendObject(model.Interval{Start: s, End: s + model.Timestamp(rng.Intn(300))}, []model.ElemID{0})
	}
	ix := New(&c, WithMaxShards(6))
	before := ix.ShardCount(0)
	// Insert out-of-order objects; shard count must not grow and start
	// order must survive; ideal shards must still satisfy the staircase.
	for i := 0; i < 150; i++ {
		s := model.Timestamp(rng.Intn(1000))
		ix.Insert(model.Object{
			ID:       model.ObjectID(1000 + i),
			Interval: model.Interval{Start: s, End: s + model.Timestamp(rng.Intn(300))},
			Elems:    []model.ElemID{0},
		})
	}
	if got := ix.ShardCount(0); got != before {
		t.Errorf("shard count changed %d -> %d on inserts", before, got)
	}
	for i := 0; i < ix.ShardCount(0); i++ {
		entries := ix.shards[0][i].entries
		if !sort.SliceIsSorted(entries, func(a, b int) bool {
			return entries[a].Interval.Start < entries[b].Interval.Start
		}) {
			t.Fatalf("shard %d lost start order", i)
		}
		if ix.shards[0][i].ideal {
			for k := 1; k < len(entries); k++ {
				if entries[k].Interval.End < entries[k-1].Interval.End {
					t.Fatalf("ideal shard %d violates staircase after inserts", i)
				}
			}
		}
	}
}

func TestDeleteMarksDeadPreservingOrder(t *testing.T) {
	c := runningExample()
	ix := New(c)
	o4 := c.Objects[3]
	ix.Delete(o4)
	got := ix.Query(model.Query{Interval: model.Interval{Start: 4, End: 6}, Elems: []model.ElemID{0, 2}})
	want := []model.ObjectID{1, 6}
	if !model.EqualIDs(testutil.Canonical(got), want) {
		t.Errorf("after delete: got %v, want %v", got, want)
	}
	// Double delete must not decrement twice.
	before := ix.Len()
	ix.Delete(o4)
	if ix.Len() != before {
		t.Error("double delete changed Len")
	}
	// Entries stay start-sorted even with dead bits set.
	for e := range ix.shards {
		for i := range ix.shards[e] {
			entries := ix.shards[e][i].entries
			if !sort.SliceIsSorted(entries, func(a, b int) bool {
				return entries[a].Interval.Start < entries[b].Interval.Start
			}) {
				t.Fatalf("elem %d shard %d unsorted after delete", e, i)
			}
		}
	}
}

func TestDeadBitHelpers(t *testing.T) {
	id := model.ObjectID(42)
	dead := postings.MarkDead(id)
	if !postings.IsDead(dead) || postings.IsDead(id) {
		t.Error("dead bit mishandled")
	}
	if postings.LiveID(dead) != id {
		t.Error("LiveID failed to strip")
	}
}

func TestNoReplication(t *testing.T) {
	// Total entries across shards must equal the sum of description sizes.
	c := runningExample()
	ix := New(c, WithMaxShards(0))
	total := 0
	for e := range ix.shards {
		for i := range ix.shards[e] {
			total += len(ix.shards[e][i].entries)
		}
	}
	if total != 15 {
		t.Errorf("entries = %d, want 15 (no replication)", total)
	}
}

func TestEmptyAndUnknown(t *testing.T) {
	var c model.Collection
	ix := New(&c)
	if got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 1}, Elems: []model.ElemID{3}}); len(got) != 0 {
		t.Errorf("got %v from empty index", got)
	}
	ix2 := New(runningExample())
	if got := ix2.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{0, 99}}); len(got) != 0 {
		t.Errorf("unknown element should kill the conjunction, got %v", got)
	}
}
