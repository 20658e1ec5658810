package tifhint

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

// builders enumerates all three variants so every test covers each.
var builders = []struct {
	name  string
	build func(c *model.Collection, opts ...Option) model.Index
}{
	{"binary", func(c *model.Collection, opts ...Option) model.Index { return NewBinary(c, opts...) }},
	{"merge", func(c *model.Collection, opts ...Option) model.Index { return NewMerge(c, opts...) }},
	{"hybrid", func(c *model.Collection, opts ...Option) model.Index { return NewHybrid(c, opts...) }},
}

func TestRunningExampleAllVariants(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			// m = 3 matches the Figure 5 illustration.
			ix := b.build(runningExample(), WithM(3))
			got := testutil.Canonical(ix.Query(exampleQuery))
			if !model.EqualIDs(got, exampleWant) {
				t.Errorf("got %v, want %v", got, exampleWant)
			}
		})
	}
}

func TestSingleElementQueries(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ix := b.build(runningExample(), WithM(3))
			got := testutil.Canonical(ix.Query(model.Query{
				Interval: model.Interval{Start: 0, End: 3},
				Elems:    []model.ElemID{2},
			}))
			want := []model.ObjectID{1, 3, 4, 5, 7} // o2, o4, o5, o6, o8
			if !model.EqualIDs(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

func TestUnknownElement(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ix := b.build(runningExample(), WithM(3))
			if got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{9}}); len(got) != 0 {
				t.Errorf("unknown element returned %v", got)
			}
			if got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{0, 9}}); len(got) != 0 {
				t.Errorf("conjunction with unknown element returned %v", got)
			}
		})
	}
}

func TestOracleEquivalenceAcrossM(t *testing.T) {
	for _, b := range builders {
		for _, m := range []int{1, 3, 5, 8, 12} {
			for seed := int64(0); seed < 3; seed++ {
				cfg := testutil.DefaultConfig(seed)
				c := testutil.RandomCollection(cfg)
				ix := b.build(c, WithM(m))
				testutil.CheckAgainstOracle(t, b.name, ix, c,
					testutil.RandomQueries(cfg, 120, seed+int64(m)*13))
			}
		}
	}
}

func TestUpdatesAllVariants(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			cfg := testutil.DefaultConfig(41)
			testutil.CheckUpdates(t, b.name, func(c *model.Collection) model.Index {
				return b.build(c, WithM(6))
			}, cfg)
		})
	}
}

// TestTemporalOnlyQueries: an element-free query is the generation's to
// answer (maint.Generation.Query scans for it), so every variant answers
// nil.
func TestTemporalOnlyQueries(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ix := b.build(runningExample(), WithM(3))
			if got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 0}}); got != nil {
				t.Errorf("element-free query = %v, want nil", got)
			}
		})
	}
}

func TestSizeAccounting(t *testing.T) {
	c := testutil.RandomCollection(testutil.DefaultConfig(6))
	bin := NewBinary(c, WithM(6))
	mrg := NewMerge(c, WithM(6))
	hyb := NewHybrid(c, WithM(6), WithSlices(10))
	for name, sz := range map[string]int64{
		"binary": bin.SizeBytes(), "merge": mrg.SizeBytes(), "hybrid": hyb.SizeBytes(),
	} {
		if sz <= 0 {
			t.Errorf("%s SizeBytes = %d", name, sz)
		}
	}
	// The hybrid stores two copies, so it must dominate the merge variant
	// at equal m (Table 5's ordering).
	if hyb.SizeBytes() <= mrg.SizeBytes() {
		t.Errorf("hybrid (%d) should exceed merge (%d)", hyb.SizeBytes(), mrg.SizeBytes())
	}
	if bin.entryCount() != mrg.entryCount() {
		t.Errorf("binary and merge at equal m must store equal entries: %d vs %d",
			bin.entryCount(), mrg.entryCount())
	}
	if hyb.entryCount() <= mrg.entryCount() {
		t.Error("hybrid EntryCount should include the slice copy")
	}
}

func TestHybridSliceConfig(t *testing.T) {
	c := runningExample()
	ix := NewHybrid(c, WithM(3), WithSlices(4))
	if ix.numSlices != 4 {
		t.Errorf("numSlices = %d", ix.numSlices)
	}
	got := testutil.Canonical(ix.Query(exampleQuery))
	if !model.EqualIDs(got, exampleWant) {
		t.Errorf("got %v, want %v", got, exampleWant)
	}
}

func TestHybridManyElements(t *testing.T) {
	// Queries with |q.d| > 2 run one kernel pass per later element.
	ix := NewHybrid(runningExample(), WithM(3), WithSlices(4))
	got := testutil.Canonical(ix.Query(model.Query{
		Interval: model.Interval{Start: 0, End: 15},
		Elems:    []model.ElemID{0, 1, 2},
	}))
	want := []model.ObjectID{0, 3} // o1 and o4 contain all of a,b,c
	if !model.EqualIDs(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestInsertBeyondDomainAllVariants(t *testing.T) {
	// Late insertions past the build-time span are clamped onto the last
	// grid cells; real-endpoint comparisons must keep results exact.
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ix := b.build(runningExample(), WithM(3))
			ix.Insert(model.Object{ID: 8, Interval: model.Interval{Start: 14, End: 99}, Elems: []model.ElemID{0}})
			ix.Insert(model.Object{ID: 9, Interval: model.Interval{Start: 200, End: 300}, Elems: []model.ElemID{0}})
			got := testutil.Canonical(ix.Query(model.Query{
				Interval: model.Interval{Start: 50, End: 60}, Elems: []model.ElemID{0},
			}))
			if !model.EqualIDs(got, []model.ObjectID{8}) {
				t.Errorf("got %v, want [8]", got)
			}
			got = testutil.Canonical(ix.Query(model.Query{
				Interval: model.Interval{Start: 250, End: 260}, Elems: []model.ElemID{0},
			}))
			if !model.EqualIDs(got, []model.ObjectID{9}) {
				t.Errorf("got %v, want [9]", got)
			}
			// Each reported once on a covering query.
			got = testutil.Canonical(ix.Query(model.Query{
				Interval: model.Interval{Start: 0, End: 400}, Elems: []model.ElemID{0},
			}))
			want := []model.ObjectID{0, 1, 3, 6, 8, 9}
			if !model.EqualIDs(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

func TestMergeVariantLargerM(t *testing.T) {
	// Deep grids fragment divisions; results must not change.
	cfg := testutil.DefaultConfig(8)
	c := testutil.RandomCollection(cfg)
	shallow := NewMerge(c, WithM(2))
	deep := NewMerge(c, WithM(11))
	for i, q := range testutil.RandomQueries(cfg, 150, 77) {
		a := testutil.Canonical(shallow.Query(q))
		b := testutil.Canonical(deep.Query(q))
		if !model.EqualIDs(a, b) {
			t.Fatalf("query %d: shallow %v != deep %v", i, a, b)
		}
	}
}
