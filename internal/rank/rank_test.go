package rank

import (
	"math"
	"sort"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/testutil"
)

func buildCollection() *model.Collection {
	var c model.Collection
	c.AppendObject(model.Interval{Start: 0, End: 100}, []model.ElemID{0, 1}) // common elems, full overlap
	c.AppendObject(model.Interval{Start: 40, End: 60}, []model.ElemID{0, 2}) // rare elem, partial overlap
	c.AppendObject(model.Interval{Start: 90, End: 200}, []model.ElemID{0})   // tail overlap
	c.AppendObject(model.Interval{Start: 0, End: 100}, []model.ElemID{0, 1}) // duplicate of first
	c.AppendObject(model.Interval{Start: 300, End: 400}, []model.ElemID{0})  // no overlap
	return &c
}

// referenceScore is the scoring formula written out for intervals short
// enough that Duration does not overflow: the share of the query
// interval the object's lifespan covers.
func referenceScore(o *model.Object, q *model.Query) float64 {
	overlap, ok := o.Interval.Intersect(q.Interval)
	if !ok {
		return 0
	}
	return float64(overlap.Duration()) / float64(q.Interval.Duration())
}

// TestScoreComponents pins the score: the covered share of the query
// interval, whatever the query's elements and however common they are.
func TestScoreComponents(t *testing.T) {
	c := buildCollection()
	q := model.Query{Interval: model.Interval{Start: 0, End: 99}, Elems: []model.ElemID{0}}
	for _, tc := range []struct {
		obj  int
		want float64
	}{
		{0, 1},          // covers the whole query
		{1, 21.0 / 100}, // [40, 60]
		{2, 10.0 / 100}, // [90, 99] of [90, 200]
		{4, 0},          // no overlap
	} {
		if got := score(&c.Objects[tc.obj], &q); got != tc.want {
			t.Errorf("object %d: score %v, want %v", tc.obj, got, tc.want)
		}
	}
	// A rare element changes nothing: the text half carries no weight.
	qRare := model.Query{Interval: q.Interval, Elems: []model.ElemID{0, 2}}
	if score(&c.Objects[1], &qRare) != score(&c.Objects[1], &q) {
		t.Error("query elements moved the score")
	}
	// The widest interval has 2^64 points and still scores 1 against itself.
	all := model.Interval{Start: math.MinInt64, End: math.MaxInt64}
	wide := model.Object{Interval: all}
	if got := score(&wide, &model.Query{Interval: all}); got != 1 {
		t.Errorf("full-range object against the full range: score %v, want 1", got)
	}
}

func TestTopKAgainstFullSort(t *testing.T) {
	cfg := testutil.DefaultConfig(71)
	c := testutil.RandomCollection(cfg)
	ix := bruteforce.New(c)
	for i, q := range testutil.RandomQueries(cfg, 80, 72) {
		for _, k := range []int{1, 3, 10, 1000} {
			got := TopK(ix, c, nil, q, k)
			// Oracle: score all matches, sort fully.
			var want []Result
			for _, id := range ix.Query(q) {
				want = append(want, Result{ID: id, Score: referenceScore(&c.Objects[id], &q)})
			}
			sort.SliceStable(want, func(a, b int) bool {
				if want[a].Score != want[b].Score {
					return want[a].Score > want[b].Score
				}
				return want[a].ID < want[b].ID
			})
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("query %d k=%d: got %d results, want %d", i, k, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("query %d k=%d pos %d: got %+v, want %+v", i, k, j, got[j], want[j])
				}
			}
		}
	}
}

func TestTopKWithRealIndex(t *testing.T) {
	cfg := testutil.DefaultConfig(73)
	c := testutil.RandomCollection(cfg)
	ix := core.NewPerf(c, core.WithM(6))
	q := testutil.RandomQueries(cfg, 1, 74)[0]
	got := TopK(ix, c, nil, q, 5)
	oracle := TopK(bruteforce.New(c), c, nil, q, 5)
	if len(got) != len(oracle) {
		t.Fatalf("got %d, oracle %d", len(got), len(oracle))
	}
	for i := range got {
		if got[i].ID != oracle[i].ID {
			t.Fatalf("pos %d: %d vs %d", i, got[i].ID, oracle[i].ID)
		}
	}
}

// The top-k prefix property: TopK(k1) must be a prefix of TopK(k2) for
// k1 < k2 (with the deterministic score/id tiebreak).
func TestTopKPrefixProperty(t *testing.T) {
	cfg := testutil.DefaultConfig(75)
	c := testutil.RandomCollection(cfg)
	ix := bruteforce.New(c)
	for _, q := range testutil.RandomQueries(cfg, 40, 76) {
		big := TopK(ix, c, nil, q, 20)
		for _, k := range []int{1, 5, 10} {
			small := TopK(ix, c, nil, q, k)
			limit := k
			if limit > len(big) {
				limit = len(big)
			}
			if len(small) != limit {
				t.Fatalf("k=%d: got %d results, want %d", k, len(small), limit)
			}
			for i := range small {
				if small[i] != big[i] {
					t.Fatalf("k=%d pos %d: %+v vs %+v", k, i, small[i], big[i])
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	c := buildCollection()
	ix := bruteforce.New(c)
	q := model.Query{Interval: model.Interval{Start: 0, End: 99}, Elems: []model.ElemID{0}}
	if got := TopK(ix, c, nil, q, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	empty := model.Query{Interval: model.Interval{Start: 500, End: 600}, Elems: []model.ElemID{0}}
	if got := TopK(ix, c, nil, empty, 3); len(got) != 0 {
		t.Errorf("empty result set returned %v", got)
	}
	// Descending scores.
	got := TopK(ix, c, nil, q, 10)
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("results not in descending score order")
		}
	}
}

// fixedHits is a candidate source that allocates nothing.
type fixedHits []model.ObjectID

func (f fixedHits) Query(model.Query) []model.ObjectID { return f }

// TestAllocBudget pins the ranked-search driver: the k-capacity heap and
// the result slice are its only allocations, however many candidates it
// scores.
func TestAllocBudget(t *testing.T) {
	cfg := testutil.DefaultConfig(79)
	c := testutil.RandomCollection(cfg)
	hits := make(fixedHits, len(c.Objects))
	for i := range hits {
		hits[i] = model.ObjectID(i)
	}
	var ix model.Querier = hits // boxed once, not per call
	q := model.Query{Interval: model.Interval{Start: 0, End: 1 << 40}, Elems: []model.ElemID{0, 1}}
	allocbudget.Gate(t, "rank/TopK", func() {
		if got := TopK(ix, c, nil, q, 10); len(got) != 10 {
			t.Fatalf("top-10 of %d candidates returned %d", len(hits), len(got))
		}
	})
}
