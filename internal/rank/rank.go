// Package rank adds relevance-ranked (top-k) time-travel IR search on top
// of any containment index — the extension the paper names as future work
// ("find the most relevant objects overlapping the query time interval",
// Section 7). Candidate generation reuses a containment index. Every
// candidate contains every query element (the paper's set semantics), so
// the text half carries no signal between candidates: the score is the
// fraction of the query interval the object's lifespan covers. It reads
// no corpus-wide statistic, so a ranked answer does not move when
// unrelated objects are added or removed.
package rank

import (
	"cmp"
	"slices"

	"repro/internal/model"
)

// Scorer is an empty placeholder: scores read no corpus statistics, so
// there is nothing to precompute.
//
// Deprecated: kept only because benchmark/inputs.go names it; it goes
// with ROADMAP item 8(ii).
type Scorer struct{}

// ScorerConfig has no settings left.
//
// Deprecated: kept only because benchmark/inputs.go names it; it goes
// with ROADMAP item 8(ii).
type ScorerConfig struct{}

// NewScorer returns the empty Scorer.
//
// Deprecated: kept only because benchmark/inputs.go calls it; it goes
// with ROADMAP item 8(ii).
func NewScorer(*model.Collection, ScorerConfig) *Scorer { return &Scorer{} }

// score is the fraction of the query interval the object's lifespan
// covers, in (0, 1] for every candidate.
func score(o *model.Object, q *model.Query) float64 {
	overlap, ok := o.Interval.Intersect(q.Interval)
	if !ok {
		return 0
	}
	return points(overlap) / points(q.Interval)
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
// containment index; the collection supplies the object records. The
// *Scorer is unused and may be nil: the parameter stays only while
// benchmark/inputs.go passes one (ROADMAP item 8(ii)). The candidate loop only
// computes a temporal overlap and touches the pre-sized heap —
// replace-root when a candidate beats the current worst — so ranking
// allocates nothing per candidate.
func TopK(ix model.Querier, c *model.Collection, _ *Scorer, q model.Query, k int) []Result {
	if k <= 0 {
		return nil
	}
	// The heap never holds more than the candidates, so a huge k from a
	// request reserves no memory that no result will fill.
	cands := ix.Query(q)
	h := make(resultHeap, 0, min(k, len(cands)))
	for _, id := range cands {
		r := Result{ID: id, Score: score(&c.Objects[id], &q)}
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
