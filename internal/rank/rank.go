// Package rank adds relevance-ranked (top-k) time-travel IR search on top
// of any containment index — the extension the paper names as future work
// ("find the most relevant objects overlapping the query time interval",
// Section 7). Candidate generation reuses a containment index; scoring
// combines element rarity (IDF, the natural weight under the paper's set
// semantics where term frequency is always 0/1) with temporal overlap.
package rank

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/model"
)

// Scorer computes relevance scores for candidate objects from whole-
// collection statistics. The engines do not keep one: they build a
// QueryScorer per ranked query from always-current statistics
// (NewQueryScorer). Scorer is the reference the oracles score with.
type Scorer struct {
	idf            []float64
	n              int
	temporalWeight float64
}

// ScorerConfig tunes the scoring function.
type ScorerConfig struct {
	// TemporalWeight in (0, 1] balances the temporal-overlap component
	// against the IDF component. Zero (or out-of-range) selects the
	// default 0.3; set DisableTemporal for a pure-IDF scorer instead.
	TemporalWeight float64
	// DisableTemporal scores by IDF only.
	DisableTemporal bool
}

// weight resolves the effective temporal weight.
func (cfg ScorerConfig) weight() float64 {
	if cfg.DisableTemporal {
		return 0
	}
	if cfg.TemporalWeight <= 0 || cfg.TemporalWeight > 1 {
		return 0.3
	}
	return cfg.TemporalWeight
}

// idf is the weight of an element contained in df of n objects:
// ln(1 + n/df), and zero for an element no object contains.
func idf(n, df int) float64 {
	if df <= 0 {
		return 0
	}
	return math.Log1p(float64(n) / float64(df))
}

// NewScorer precomputes IDF weights from the collection's element
// frequencies.
func NewScorer(c *model.Collection, cfg ScorerConfig) *Scorer {
	freqs := c.ElemFreqs()
	s := &Scorer{idf: make([]float64, len(freqs)), n: c.Len(), temporalWeight: cfg.weight()}
	for e, f := range freqs {
		s.idf[e] = idf(s.n, f)
	}
	return s
}

// IDF returns the precomputed weight of an element.
func (s *Scorer) IDF(e model.ElemID) float64 {
	if int(e) >= len(s.idf) {
		return 0
	}
	return s.idf[e]
}

// ForQuery specializes the scorer to one query.
func (s *Scorer) ForQuery(q *model.Query) QueryScorer {
	return newQueryScorer(q.Elems, s.n, s.IDF, s.temporalWeight)
}

// Score rates one object against a query; see QueryScorer.Score.
func (s *Scorer) Score(o *model.Object, q *model.Query) float64 {
	return s.ForQuery(q).Score(o, q)
}

// QueryScorer scores the candidates of one query. The scoring model:
// the IDF component sums the weights of the query elements (all
// contained, by the containment semantics); the temporal component is
// the fraction of the query interval the object's lifespan covers. Both
// are normalized to [0, 1] before mixing so scores are comparable across
// queries. The IDF component is the same for every candidate, so it is
// computed once, here, and only the overlap is left per candidate.
type QueryScorer struct {
	idfPart        float64 // (1 - temporalWeight) * normalized IDF component
	temporalWeight float64
}

// NewQueryScorer builds the scorer of a query over elems from current
// corpus statistics: n objects, df(e) of them containing e. It scores
// bit-identically to NewScorer over that corpus.
func NewQueryScorer(elems []model.ElemID, n int, df func(model.ElemID) int, cfg ScorerConfig) QueryScorer {
	return newQueryScorer(elems, n, func(e model.ElemID) float64 { return idf(n, df(e)) }, cfg.weight())
}

func newQueryScorer(elems []model.ElemID, n int, idfOf func(model.ElemID) float64, temporalWeight float64) QueryScorer {
	var idfSum float64
	for _, e := range elems {
		idfSum += idfOf(e)
	}
	idfComponent := 0.0
	if idfMax := math.Log1p(float64(n)); len(elems) > 0 && idfMax > 0 {
		idfComponent = idfSum / (idfMax * float64(len(elems)))
	}
	return QueryScorer{idfPart: (1 - temporalWeight) * idfComponent, temporalWeight: temporalWeight}
}

// Score rates one candidate. It runs once per candidate per ranked
// query, so it must stay allocation-free.
func (w QueryScorer) Score(o *model.Object, q *model.Query) float64 {
	overlap, ok := o.Interval.Intersect(q.Interval)
	temporal := 0.0
	if ok {
		temporal = points(overlap) / points(q.Interval)
	}
	// The conversion rounds the product, so no platform fuses the
	// multiply-add and score bits are the same everywhere.
	return w.idfPart + float64(w.temporalWeight*temporal)
}

// points is iv's length in time points. Unlike Interval.Duration it
// does not overflow on intervals of more than 2^63−1 points.
func points(iv model.Interval) float64 { return float64(uint64(iv.End-iv.Start)) + 1 }

// Result is one ranked hit.
type Result struct {
	ID    model.ObjectID
	Score float64
}

// resultHeap is a concrete min-heap on score (ties broken by larger id
// first so the worst of the best-k sits at the root), keeping the best k.
// It deliberately does not implement container/heap: the interface-based
// API boxes every Result pushed through it, and the heap operations sit
// on the per-candidate ranking path.
type resultHeap []Result

// worse reports whether entry a should sit below entry b, i.e. a is a
// weaker result than b (lower score, or equal score with a larger id).
func (h resultHeap) worse(a, b int) bool {
	if h[a].Score != h[b].Score {
		return h[a].Score < h[b].Score
	}
	return h[a].ID > h[b].ID
}

func (h resultHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h resultHeap) siftDown(i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h.worse(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && h.worse(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// TopK returns the k highest-scoring objects matching q, ordered by
// descending score (ascending id on ties). Candidates come from the
// containment index; the collection supplies the object records.
func TopK(ix model.Querier, c *model.Collection, s *Scorer, q model.Query, k int) []Result {
	return TopKQuery(ix, c, s.ForQuery(&q), q, k)
}

// TopKQuery is TopK with the query's scorer already built. The
// candidate loop only computes a temporal overlap and touches the
// pre-sized heap — replace-root when a candidate beats the current
// worst — so ranking allocates nothing per candidate.
func TopKQuery(ix model.Querier, c *model.Collection, w QueryScorer, q model.Query, k int) []Result {
	if k <= 0 {
		return nil
	}
	// The heap never holds more than the candidates, so a huge k from a
	// request reserves no memory that no result will fill.
	cands := ix.Query(q)
	h := make(resultHeap, 0, min(k, len(cands)))
	for _, id := range cands {
		o := &c.Objects[id]
		r := Result{ID: id, Score: w.Score(o, &q)}
		if len(h) < k {
			h = append(h, r)
			h.siftUp(len(h) - 1)
			continue
		}
		if r.Score > h[0].Score || (r.Score == h[0].Score && r.ID < h[0].ID) {
			h[0] = r
			h.siftDown(0)
		}
	}
	out := make([]Result, len(h))
	copy(out, h)
	slices.SortStableFunc(out, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}
