package aggregate

import (
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/testutil"
)

func small() *model.Collection {
	var c model.Collection
	c.AppendObject(model.Interval{Start: 0, End: 99}, []model.ElemID{0})  // spans all buckets
	c.AppendObject(model.Interval{Start: 0, End: 24}, []model.ElemID{0})  // bucket 0 only
	c.AppendObject(model.Interval{Start: 50, End: 74}, []model.ElemID{0}) // bucket 2 only
	c.AppendObject(model.Interval{Start: 0, End: 99}, []model.ElemID{1})  // other element
	return &c
}

func TestHistogramCounts(t *testing.T) {
	c := small()
	ix := bruteforce.New(c)
	q := model.Query{Interval: model.Interval{Start: 0, End: 99}, Elems: []model.ElemID{0}}
	buckets := Histogram(ix, c, q, 4)
	if len(buckets) != 4 {
		t.Fatalf("%d buckets", len(buckets))
	}
	wantCounts := []int{2, 1, 2, 1}
	for i, b := range buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
		if b.Span.Duration() != 25 {
			t.Errorf("bucket %d span = %v", i, b.Span)
		}
	}
	// Mass: bucket 0 = 25 (o1) + 25 (o2) = 50.
	if buckets[0].Mass != 50 {
		t.Errorf("bucket 0 mass = %d, want 50", buckets[0].Mass)
	}
	// Total mass equals the sum of clipped durations: o1 100 + o2 25 + o3 25.
	var total int64
	for _, b := range buckets {
		total += b.Mass
	}
	if total != 150 {
		t.Errorf("total mass = %d, want 150", total)
	}
}

func TestHistogramRespectsElements(t *testing.T) {
	c := small()
	ix := bruteforce.New(c)
	q := model.Query{Interval: model.Interval{Start: 0, End: 99}, Elems: []model.ElemID{1}}
	buckets := Histogram(ix, c, q, 2)
	if buckets[0].Count != 1 || buckets[1].Count != 1 {
		t.Errorf("buckets = %+v", buckets)
	}
}

func TestHistogramEdges(t *testing.T) {
	c := small()
	ix := bruteforce.New(c)
	q := model.Query{Interval: model.Interval{Start: 0, End: 99}, Elems: []model.ElemID{0}}
	if got := Histogram(ix, c, q, 0); got != nil {
		t.Error("n=0 should give nil")
	}
	// More buckets than time units: n clamps to the domain size.
	tiny := model.Query{Interval: model.Interval{Start: 10, End: 12}, Elems: []model.ElemID{0}}
	buckets := Histogram(ix, c, tiny, 10)
	if len(buckets) != 3 {
		t.Errorf("clamped buckets = %d, want 3", len(buckets))
	}
	// Uneven division: the last bucket absorbs the remainder.
	buckets = Histogram(ix, c, q, 3)
	if got := buckets[2].Span.End; got != 99 {
		t.Errorf("last bucket ends at %d, want 99", got)
	}
}

func TestHistogramBucketInvariants(t *testing.T) {
	cfg := testutil.DefaultConfig(101)
	c := testutil.RandomCollection(cfg)
	ix := core.NewPerf(c, core.WithM(6))
	oracle := bruteforce.New(c)
	for i, q := range testutil.RandomQueries(cfg, 60, 102) {
		buckets := Histogram(ix, c, q, 8)
		// Buckets tile the query interval exactly.
		if len(buckets) > 0 {
			if buckets[0].Span.Start != q.Interval.Start || buckets[len(buckets)-1].Span.End != q.Interval.End {
				t.Fatalf("query %d: buckets do not tile %v", i, q.Interval)
			}
			for b := 1; b < len(buckets); b++ {
				if buckets[b].Span.Start != buckets[b-1].Span.End+1 {
					t.Fatalf("query %d: gap between buckets %d and %d", i, b-1, b)
				}
			}
		}
		// Max bucket count can't exceed total matches; each match counts
		// in at least one bucket.
		matches := len(oracle.Query(q))
		anyCounted := 0
		for _, b := range buckets {
			if b.Count > matches {
				t.Fatalf("query %d: bucket count %d > matches %d", i, b.Count, matches)
			}
			anyCounted += b.Count
		}
		if matches > 0 && anyCounted == 0 {
			t.Fatalf("query %d: %d matches but empty histogram", i, matches)
		}
	}
}
