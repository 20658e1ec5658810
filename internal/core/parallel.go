package core

import (
	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/postings"
)

// Parallel query paths for the two irHINT variants. Both algorithms emit
// per-division outputs that are disjoint (HINT's duplicate-avoidance rule
// plus the ob.First replica gate), so chunked division scans concatenate
// into a duplicate-free answer with no merge step; only the output order
// changes versus the serial traversal.

// parallelCutoff is the minimum relevant-partition count worth fanning.
const parallelCutoff = 8

// parallelMinPer is the smallest per-chunk partition count.
const parallelMinPer = 2

// relevantOf collects the relevant partitions with their obligations —
// the serial prologue shared by both variants' fan-outs.
func relevantOf[P any](dom domain.Domain, levels []directory[P], q model.Interval) (parts []*P, obls []hint.Obligations) {
	hint.Visit(dom, q, func(lv hint.LevelVisit) {
		levels[lv.Level].forRange(lv.F, lv.L, func(j uint32, p *P) {
			parts = append(parts, p)
			obls = append(obls, lv.Oblige(j))
		})
	})
	return parts, obls
}

// QueryP is Query with the per-division reduced queries fanned across the
// pool. Results equal Query as a set.
func (ix *PerfIndex) QueryP(q model.Query, pool *exec.Pool) []model.ObjectID {
	if len(q.Elems) == 0 {
		return ix.tracedTemporalOnlyP(q, pool)
	}
	parts, obls := relevantOf(ix.dom, ix.levels, q.Interval)
	if pool == nil || pool.Workers() <= 1 || len(parts) < parallelCutoff {
		return ix.Query(q)
	}
	defer q.Trace.StartStage(obs.StageIntersect).End()
	plan := dict.PlanOrder(q.Elems, ix.freqs)
	partials := exec.MapChunks(pool, len(parts), parallelMinPer, func(lo, hi int) []model.ObjectID {
		var out, scratch []model.ObjectID
		for i := lo; i < hi; i++ {
			p, ob := parts[i], obls[i]
			scratch, out = p.o.query(q, plan, ob.CheckStart, ob.CheckEnd, scratch, out)
			if ob.First {
				scratch, out = p.r.query(q, plan, ob.CheckStart, false, scratch, out)
			}
		}
		return out
	})
	var out []model.ObjectID
	for _, b := range partials {
		out = append(out, b...)
	}
	return out
}

// tracedTemporalOnlyP wraps the element-free fan-out in a postings span.
func (ix *PerfIndex) tracedTemporalOnlyP(q model.Query, pool *exec.Pool) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	return ix.queryTemporalOnlyP(q.Interval, pool)
}

func (ix *PerfIndex) queryTemporalOnlyP(q model.Interval, pool *exec.Pool) []model.ObjectID {
	parts, obls := relevantOf(ix.dom, ix.levels, q)
	if pool == nil || pool.Workers() <= 1 || len(parts) < parallelCutoff {
		return ix.queryTemporalOnly(q)
	}
	partials := exec.MapChunks(pool, len(parts), parallelMinPer, func(lo, hi int) []model.ObjectID {
		var out []model.ObjectID
		for i := lo; i < hi; i++ {
			p, ob := parts[i], obls[i]
			out = p.o.allIDs(q, ob.CheckStart, ob.CheckEnd, out)
			if ob.First {
				out = p.r.allIDs(q, ob.CheckStart, false, out)
			}
		}
		return out
	})
	var out []model.ObjectID
	for _, b := range partials {
		out = append(out, b...)
	}
	return out
}

// QueryP is Query with the per-division intersect+restrict steps fanned
// across the pool, each chunk carrying its own survivor buffer and
// survivor bitmap.
func (ix *SizeIndex) QueryP(q model.Query, pool *exec.Pool) []model.ObjectID {
	if len(q.Elems) == 0 {
		return ix.tracedTemporalOnlyP(q, pool)
	}
	parts, obls := relevantOf(ix.dom, ix.levels, q.Interval)
	if pool == nil || pool.Workers() <= 1 || len(parts) < parallelCutoff {
		return ix.Query(q)
	}
	defer q.Trace.StartStage(obs.StageIntersect).End()
	plan := dict.PlanOrder(q.Elems, ix.freqs)
	partials := exec.MapChunks(pool, len(parts), parallelMinPer, func(lo, hi int) []model.ObjectID {
		bm := survivorPool.Get().(*postings.Bitmap)
		var out, scratch []model.ObjectID
		for i := lo; i < hi; i++ {
			p, ob := parts[i], obls[i]
			scratch, out = p.o.query(q.Interval, plan, false, ob.CheckStart, ob.CheckEnd, bm, scratch, out)
			if ob.First {
				scratch, out = p.r.query(q.Interval, plan, true, ob.CheckStart, false, bm, scratch, out)
			}
		}
		putSurvivors(bm)
		return out
	})
	var out []model.ObjectID
	for _, b := range partials {
		out = append(out, b...)
	}
	return out
}

// tracedTemporalOnlyP wraps the element-free fan-out in a postings span.
func (ix *SizeIndex) tracedTemporalOnlyP(q model.Query, pool *exec.Pool) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	return ix.queryTemporalOnlyP(q.Interval, pool)
}

func (ix *SizeIndex) queryTemporalOnlyP(q model.Interval, pool *exec.Pool) []model.ObjectID {
	parts, obls := relevantOf(ix.dom, ix.levels, q)
	if pool == nil || pool.Workers() <= 1 || len(parts) < parallelCutoff {
		return ix.queryTemporalOnly(q)
	}
	partials := exec.MapChunks(pool, len(parts), parallelMinPer, func(lo, hi int) []model.ObjectID {
		var out []model.ObjectID
		for i := lo; i < hi; i++ {
			p, ob := parts[i], obls[i]
			out = filterOriginals(p.o.ivals, ob.CheckStart, ob.CheckEnd, q, out)
			if ob.First {
				out = filterReplicas(p.r.ivals, ob.CheckStart, q, out)
			}
		}
		return out
	})
	var out []model.ObjectID
	for _, b := range partials {
		out = append(out, b...)
	}
	return out
}
