package hint

import (
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
)

// This file wires the HINT traversal entry points into the
// observability layer. Each wrapper records one span on tr and
// delegates; a nil tr is the disabled recorder, so un-traced callers
// pay one branch. The spans are deferred so early returns and panics
// can never leak an open span (the span-end irlint analyzer enforces
// the pattern).

// TracedRangeQuery is RangeQuery with the postings-fetch stage
// recorded on tr.
func (ix *Index) TracedRangeQuery(q model.Interval, tr *obs.Trace, dst []model.ObjectID) []model.ObjectID {
	defer tr.StartStage(obs.StagePostings).End()
	return ix.RangeQuery(q, dst)
}

// TracedRangeQueryParallel is RangeQueryParallel with the
// postings-fetch stage recorded on tr.
func (ix *Index) TracedRangeQueryParallel(q model.Interval, pool *exec.Pool, tr *obs.Trace, dst []model.ObjectID) []model.ObjectID {
	defer tr.StartStage(obs.StagePostings).End()
	return ix.RangeQueryParallel(q, pool, dst)
}
