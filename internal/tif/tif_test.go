package tif

import (
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
)

// runningExample builds the collection of Figure 1 (a=0, b=1, c=2).
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

func TestSingleElement(t *testing.T) {
	ix := New(runningExample())
	got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{1}})
	want := []model.ObjectID{0, 2, 3, 4} // o1, o3, o4, o5 contain b
	if !model.EqualIDs(testutil.Canonical(got), want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestUnknownElement(t *testing.T) {
	ix := New(runningExample())
	got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{77}})
	if len(got) != 0 {
		t.Errorf("unknown element should yield nothing, got %v", got)
	}
	got = ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 15}, Elems: []model.ElemID{0, 77}})
	if len(got) != 0 {
		t.Errorf("unknown element in conjunction should yield nothing, got %v", got)
	}
}

func TestTemporalOnlyQuery(t *testing.T) {
	ix := New(runningExample())
	got := ix.Query(model.Query{Interval: model.Interval{Start: 0, End: 0}})
	want := []model.ObjectID{2, 3}
	if !model.EqualIDs(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestOracleEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := testutil.DefaultConfig(seed)
		c := testutil.RandomCollection(cfg)
		ix := New(c)
		testutil.CheckAgainstOracle(t, "tif", ix, c, testutil.RandomQueries(cfg, 200, seed+1))
	}
}

func TestUpdates(t *testing.T) {
	cfg := testutil.DefaultConfig(17)
	testutil.CheckUpdates(t, "tif", func(c *model.Collection) model.Index {
		return New(c)
	}, cfg)
}

func TestDeleteIsIdempotentPerList(t *testing.T) {
	c := runningExample()
	ix := New(c)
	o := c.Objects[3] // o4, appears in all three lists
	before := ix.Freqs()[0]
	ix.Delete(o)
	if ix.Freqs()[0] != before-1 {
		t.Errorf("freq after delete = %d, want %d", ix.Freqs()[0], before-1)
	}
	ix.Delete(o) // second delete must not corrupt frequencies
	if ix.Freqs()[0] != before-1 {
		t.Errorf("freq after double delete = %d, want %d", ix.Freqs()[0], before-1)
	}
	got := ix.Query(model.Query{Interval: model.Interval{Start: 4, End: 6}, Elems: []model.ElemID{0, 2}})
	want := []model.ObjectID{1, 6}
	if !model.EqualIDs(testutil.Canonical(got), want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestResortAfterOutOfOrderInserts(t *testing.T) {
	// Insert with shuffled ids, Resort, then query correctness.
	var ix Index
	objs := runningExample().Objects
	order := []int{5, 0, 7, 2, 4, 1, 6, 3}
	for _, i := range order {
		ix.Insert(objs[i])
	}
	ix.Resort()
	got := ix.Query(model.Query{Interval: model.Interval{Start: 4, End: 6}, Elems: []model.ElemID{0, 2}})
	want := []model.ObjectID{1, 3, 6}
	if !model.EqualIDs(testutil.Canonical(got), want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSizeBytesPositiveAndGrows(t *testing.T) {
	small := New(runningExample())
	cfg := testutil.DefaultConfig(3)
	big := New(testutil.RandomCollection(cfg))
	if small.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Error("bigger collection should yield bigger index")
	}
}

func TestLen(t *testing.T) {
	ix := New(runningExample())
	if ix.Len() != 8 {
		t.Errorf("Len = %d, want 8", ix.Len())
	}
}
