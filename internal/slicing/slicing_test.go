package slicing

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

func TestRunningExampleFourSlices(t *testing.T) {
	// Figure 2 uses 4 slices over the domain.
	ix := New(runningExample(), WithSlices(4))
	got := ix.Query(model.Query{Interval: model.Interval{Start: 4, End: 6}, Elems: []model.ElemID{0, 2}})
	want := []model.ObjectID{1, 3, 6}
	if !model.EqualIDs(testutil.Canonical(got), want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if ix.NumSlices() != 4 {
		t.Errorf("NumSlices = %d", ix.NumSlices())
	}
}

func TestReplicationNoDuplicates(t *testing.T) {
	// o4 spans all slices; a query covering the whole domain must report
	// it exactly once despite 4 replicas per element.
	ix := New(runningExample(), WithSlices(4))
	got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{0}})
	want := []model.ObjectID{0, 1, 3, 6}
	if !model.EqualIDs(got, want) { // Query output must already be sorted+unique
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSliceCountVariants(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 16, 64} {
		cfg := testutil.DefaultConfig(int64(k))
		c := testutil.RandomCollection(cfg)
		ix := New(c, WithSlices(k))
		testutil.CheckAgainstOracle(t, "slicing", ix, c, testutil.RandomQueries(cfg, 120, int64(k)+100))
	}
}

func TestOracleEquivalence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cfg := testutil.DefaultConfig(seed)
		c := testutil.RandomCollection(cfg)
		ix := New(c)
		testutil.CheckAgainstOracle(t, "slicing", ix, c, testutil.RandomQueries(cfg, 200, seed+1))
	}
}

func TestUpdates(t *testing.T) {
	cfg := testutil.DefaultConfig(23)
	testutil.CheckUpdates(t, "slicing", func(c *model.Collection) model.Index {
		return New(c, WithSlices(8))
	}, cfg)
}

func TestInsertBeyondDomainClamps(t *testing.T) {
	c := runningExample()
	ix := New(c, WithSlices(4))
	// Insert an object extending past the build-time domain.
	o := model.Object{ID: 8, Interval: model.Interval{Start: 14, End: 99}, Elems: []model.ElemID{0}}
	ix.Insert(o)
	got := ix.Query(model.Query{Interval: model.Interval{Start: 50, End: 60}, Elems: []model.ElemID{0}})
	want := []model.ObjectID{8}
	if !model.EqualIDs(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// And still reported once on a full-domain query.
	got = ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 100}, Elems: []model.ElemID{0}})
	want = []model.ObjectID{0, 1, 3, 6, 8}
	if !model.EqualIDs(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEmptyCollection(t *testing.T) {
	var c model.Collection
	ix := New(&c, WithSlices(4))
	if got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 5}, Elems: []model.ElemID{0}}); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}
}

func TestEntryCountGrowsWithSlices(t *testing.T) {
	c := runningExample()
	few := New(c, WithSlices(1))
	many := New(c, WithSlices(8))
	if many.EntryCount() <= few.EntryCount() {
		t.Errorf("replication did not grow entries: %d vs %d", many.EntryCount(), few.EntryCount())
	}
	if few.EntryCount() != 15 { // sum of |d| over the 8 objects
		t.Errorf("unsliced entries = %d, want 15", few.EntryCount())
	}
}

// TestTemporalOnly: an element-free query is the generation's to answer
// (maint.Generation.Query scans for it), so the index answers nil.
func TestTemporalOnly(t *testing.T) {
	ix := New(runningExample(), WithSlices(4))
	if got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 0}}); got != nil {
		t.Errorf("element-free query = %v, want nil", got)
	}
}
