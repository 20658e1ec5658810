package core

import (
	"testing"

	"repro/internal/model"
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

var exampleQuery = model.Query{Interval: model.Interval{Start: 4, End: 6}, Elems: []model.ElemID{0, 2}}
var exampleWant = []model.ObjectID{1, 3, 6}

var variants = []struct {
	name  string
	build func(c *model.Collection, opts ...Option) model.Index
}{
	{"perf", func(c *model.Collection, opts ...Option) model.Index { return NewPerf(c, opts...) }},
	{"size", func(c *model.Collection, opts ...Option) model.Index { return NewSize(c, opts...) }},
}

func TestRunningExample(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			// m = 3 matches the Figure 6 partitioning.
			ix := v.build(runningExample(), WithM(3))
			got := testutil.Canonical(ix.Query(exampleQuery))
			if !model.EqualIDs(got, exampleWant) {
				t.Errorf("got %v, want %v", got, exampleWant)
			}
		})
	}
}

func TestNoDuplicatesAcrossDivisions(t *testing.T) {
	// o4 spans the whole domain, appearing in divisions at several
	// levels; a covering query must report it exactly once.
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ix := v.build(runningExample(), WithM(3))
			got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{2}})
			seen := map[model.ObjectID]int{}
			for _, id := range got {
				seen[id]++
			}
			for id, n := range seen {
				if n > 1 {
					t.Errorf("id %d reported %d times", id, n)
				}
			}
			want := []model.ObjectID{0, 1, 3, 4, 5, 6, 7}
			if !model.EqualIDs(testutil.Canonical(got), want) {
				t.Errorf("got %v, want %v", testutil.Canonical(got), want)
			}
		})
	}
}

func TestOracleEquivalenceAcrossM(t *testing.T) {
	for _, v := range variants {
		for _, m := range []int{1, 2, 4, 7, 10} {
			for seed := int64(0); seed < 3; seed++ {
				cfg := testutil.DefaultConfig(seed)
				c := testutil.RandomCollection(cfg)
				ix := v.build(c, WithM(m))
				testutil.CheckAgainstOracle(t, v.name, ix, c,
					testutil.RandomQueries(cfg, 120, seed+int64(m)*17))
			}
		}
	}
}

func TestCostModelDefault(t *testing.T) {
	cfg := testutil.DefaultConfig(2)
	c := testutil.RandomCollection(cfg)
	perf := NewPerf(c)
	size := NewSize(c)
	if perf.M() < 1 || size.M() < 1 {
		t.Fatalf("cost-model m: perf=%d size=%d", perf.M(), size.M())
	}
	testutil.CheckAgainstOracle(t, "perf/costmodel", perf, c, testutil.RandomQueries(cfg, 100, 3))
	testutil.CheckAgainstOracle(t, "size/costmodel", size, c, testutil.RandomQueries(cfg, 100, 3))
}

func TestUpdates(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := testutil.DefaultConfig(51)
			testutil.CheckUpdates(t, v.name, func(c *model.Collection) model.Index {
				return v.build(c, WithM(5))
			}, cfg)
		})
	}
}

func TestTemporalOnly(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ix := v.build(runningExample(), WithM(3))
			got := testutil.Canonical(ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 0}}))
			want := []model.ObjectID{2, 3}
			if !model.EqualIDs(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

func TestSizeVariantSmallerThanPerf(t *testing.T) {
	// The whole point of Section 4.2: with multi-element descriptions the
	// size variant stores each interval once per division instead of once
	// per element per division.
	cfg := testutil.DefaultConfig(12)
	cfg.MaxDesc = 10
	c := testutil.RandomCollection(cfg)
	perf := NewPerf(c, WithM(6))
	size := NewSize(c, WithM(6))
	if size.SizeBytes() >= perf.SizeBytes() {
		t.Errorf("size variant (%d bytes) should be smaller than perf (%d bytes)",
			size.SizeBytes(), perf.SizeBytes())
	}
	if perf.EntryCount() <= 0 || size.EntryCount() <= 0 {
		t.Error("EntryCount must be positive")
	}
}

func TestDoubleDelete(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			c := runningExample()
			ix := v.build(c, WithM(3))
			o := c.Objects[3]
			ix.Delete(o)
			lenAfter := ix.(interface{ Len() int }).Len()
			ix.Delete(o)
			if got := ix.(interface{ Len() int }).Len(); got != lenAfter {
				t.Errorf("double delete changed Len: %d -> %d", lenAfter, got)
			}
			got := testutil.Canonical(ix.Query(exampleQuery))
			want := []model.ObjectID{1, 6}
			if !model.EqualIDs(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

func TestUnknownElement(t *testing.T) {
	for _, v := range variants {
		ix := v.build(runningExample(), WithM(3))
		if got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{42}}); len(got) != 0 {
			t.Errorf("%s: unknown element returned %v", v.name, got)
		}
	}
}

func TestInsertBeyondDomain(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ix := v.build(runningExample(), WithM(3))
			ix.Insert(model.Object{ID: 8, Interval: model.Interval{Start: 100, End: 200}, Elems: []model.ElemID{2}})
			got := testutil.Canonical(ix.Query(model.Query{
				Interval: model.Interval{Start: 150, End: 160}, Elems: []model.ElemID{2},
			}))
			if !model.EqualIDs(got, []model.ObjectID{8}) {
				t.Errorf("got %v, want [8]", got)
			}
			// Reported exactly once on a covering query.
			got = ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 300}, Elems: []model.ElemID{2}})
			seen := map[model.ObjectID]int{}
			for _, id := range got {
				seen[id]++
			}
			if seen[8] != 1 {
				t.Errorf("beyond-domain object reported %d times", seen[8])
			}
		})
	}
}

func TestTemporalOnlyAfterDeletes(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			c := runningExample()
			ix := v.build(c, WithM(3))
			ix.Delete(c.Objects[2]) // o3 covers t=0
			got := testutil.Canonical(ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 0}}))
			want := []model.ObjectID{3}
			if !model.EqualIDs(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

func TestEmptyCollection(t *testing.T) {
	var c model.Collection
	perf := NewPerf(&c)
	size := NewSize(&c)
	q := model.Query{Interval: model.Interval{Start: 0, End: 10}, Elems: []model.ElemID{0}}
	if got := perf.Query(q); len(got) != 0 {
		t.Errorf("perf returned %v", got)
	}
	if got := size.Query(q); len(got) != 0 {
		t.Errorf("size returned %v", got)
	}
}
