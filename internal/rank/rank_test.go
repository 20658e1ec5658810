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

func TestIDFOrdering(t *testing.T) {
	c := buildCollection()
	s := NewScorer(c, ScorerConfig{})
	// Element 2 appears once, element 0 in every object: rarer is heavier.
	if s.IDF(2) <= s.IDF(0) {
		t.Errorf("idf(rare)=%f should exceed idf(common)=%f", s.IDF(2), s.IDF(0))
	}
	if s.IDF(99) != 0 {
		t.Error("unseen element should have zero idf")
	}
}

func TestScoreComponents(t *testing.T) {
	c := buildCollection()
	full := NewScorer(c, ScorerConfig{TemporalWeight: 1})
	q := model.Query{Interval: model.Interval{Start: 0, End: 99}, Elems: []model.ElemID{0}}
	// Purely temporal: the fully-overlapping object must outscore the
	// partially overlapping one.
	sFull := full.Score(&c.Objects[0], &q)
	sPart := full.Score(&c.Objects[2], &q)
	if sFull <= sPart {
		t.Errorf("full overlap %f should beat partial %f", sFull, sPart)
	}
	if sFull < 0.99 || sFull > 1.01 {
		t.Errorf("full temporal overlap should score ~1, got %f", sFull)
	}
	// Purely IDF: rare-element queries score higher.
	idf := NewScorer(c, ScorerConfig{DisableTemporal: true})
	qRare := model.Query{Interval: q.Interval, Elems: []model.ElemID{2}}
	if idf.Score(&c.Objects[1], &qRare) <= idf.Score(&c.Objects[1], &q) {
		t.Error("rare-element query should outscore common-element query")
	}
	// Scores stay in [0, 1].
	for i := range c.Objects {
		for _, w := range []float64{0.01, 0.3, 1} {
			s := NewScorer(c, ScorerConfig{TemporalWeight: w})
			v := s.Score(&c.Objects[i], &q)
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("score %f out of [0,1]", v)
			}
		}
	}
}

func TestTopKAgainstFullSort(t *testing.T) {
	cfg := testutil.DefaultConfig(71)
	c := testutil.RandomCollection(cfg)
	ix := bruteforce.New(c)
	s := NewScorer(c, ScorerConfig{})
	for i, q := range testutil.RandomQueries(cfg, 80, 72) {
		for _, k := range []int{1, 3, 10, 1000} {
			got := TopK(ix, c, s, q, k)
			// Oracle: score all matches, sort fully.
			var want []Result
			for _, id := range ix.Query(q) {
				want = append(want, Result{ID: id, Score: s.Score(&c.Objects[id], &q)})
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
				if got[j].ID != want[j].ID || math.Abs(got[j].Score-want[j].Score) > 1e-12 {
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
	s := NewScorer(c, ScorerConfig{})
	q := testutil.RandomQueries(cfg, 1, 74)[0]
	got := TopK(ix, c, s, q, 5)
	oracle := TopK(bruteforce.New(c), c, s, q, 5)
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
	s := NewScorer(c, ScorerConfig{})
	for _, q := range testutil.RandomQueries(cfg, 40, 76) {
		big := TopK(ix, c, s, q, 20)
		for _, k := range []int{1, 5, 10} {
			small := TopK(ix, c, s, q, k)
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
	s := NewScorer(c, ScorerConfig{})
	q := model.Query{Interval: model.Interval{Start: 0, End: 99}, Elems: []model.ElemID{0}}
	if got := TopK(ix, c, s, q, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	empty := model.Query{Interval: model.Interval{Start: 500, End: 600}, Elems: []model.ElemID{0}}
	if got := TopK(ix, c, s, empty, 3); len(got) != 0 {
		t.Errorf("empty result set returned %v", got)
	}
	// Descending scores.
	got := TopK(ix, c, s, q, 10)
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("results not in descending score order")
		}
	}
}

// referenceScore is the scoring formula written out per candidate, the
// way Scorer.Score computed it before the IDF component was hoisted out
// of the candidate loop.
func referenceScore(s *Scorer, o *model.Object, q *model.Query) float64 {
	var idfSum float64
	for _, e := range q.Elems {
		idfSum += s.IDF(e)
	}
	idfComponent := 0.0
	if idfMax := math.Log1p(float64(s.n)); len(q.Elems) > 0 && idfMax > 0 {
		idfComponent = idfSum / (idfMax * float64(len(q.Elems)))
	}
	overlap, ok := o.Interval.Intersect(q.Interval)
	temporal := 0.0
	if ok {
		temporal = float64(overlap.Duration()) / float64(q.Interval.Duration())
	}
	a, b := (1-s.temporalWeight)*idfComponent, s.temporalWeight*temporal
	return a + b
}

// TestQueryScorerBitIdentical pins the hoisting: a Scorer, its per-query
// specialization and a QueryScorer built from bare statistics all give
// every candidate the same score, to the bit, as the reference formula.
func TestQueryScorerBitIdentical(t *testing.T) {
	cfg := testutil.DefaultConfig(77)
	c := testutil.RandomCollection(cfg)
	freqs := c.ElemFreqs()
	df := func(e model.ElemID) int {
		if int(e) >= len(freqs) {
			return 0
		}
		return freqs[e]
	}
	queries := testutil.RandomQueries(cfg, 60, 78)
	queries = append(queries,
		model.Query{Interval: model.Interval{Start: 0, End: 50}},                                                      // no elements
		model.Query{Interval: queries[0].Interval, Elems: append([]model.ElemID{model.ElemID(c.DictSize + 3)}, 0, 1)}, // unknown element
	)
	for _, sc := range []ScorerConfig{{}, {TemporalWeight: 0.7}, {DisableTemporal: true}} {
		s := NewScorer(c, sc)
		for qi := range queries {
			q := &queries[qi]
			fromScorer, fromStats := s.ForQuery(q), NewQueryScorer(q.Elems, c.Len(), df, sc)
			if fromScorer != fromStats {
				t.Fatalf("query %d: ForQuery %+v != NewQueryScorer %+v", qi, fromScorer, fromStats)
			}
			for i := range c.Objects {
				o := &c.Objects[i]
				want := math.Float64bits(referenceScore(s, o, q))
				if got := math.Float64bits(s.Score(o, q)); got != want {
					t.Fatalf("query %d object %d: Scorer.Score bits %x, reference %x", qi, i, got, want)
				}
				if got := math.Float64bits(fromStats.Score(o, q)); got != want {
					t.Fatalf("query %d object %d: QueryScorer.Score bits %x, reference %x", qi, i, got, want)
				}
			}
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
	w := NewScorer(c, ScorerConfig{}).ForQuery(&q)
	allocbudget.Gate(t, "rank/TopKQuery", func() {
		if got := TopKQuery(ix, c, w, q, 10); len(got) != 10 {
			t.Fatalf("top-10 of %d candidates returned %d", len(hits), len(got))
		}
	})
}
