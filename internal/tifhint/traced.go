package tifhint

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/postings"
)

// keepScratch is a reusable keep-mask buffer. The pool recycles masks
// across queries: each grows to the largest candidate set it has served
// and is then reused, so steady-state intersections allocate no mask.
type keepScratch struct{ mask []bool }

var keepPool = sync.Pool{New: func() any { return &keepScratch{} }}

// grown returns the mask resized to n, reallocating only when the
// candidate set outgrows every previous query's. Contents are stale;
// every consumer resets the mask before marking. Noinline so the rare
// growth allocation stays attributed to this line instead of being
// inlined into every hot intersection loop.
//
//go:noinline
func (ks *keepScratch) grown(n int) []bool {
	if cap(ks.mask) < n {
		// lint:alloc-ok pooled scratch grows to the largest candidate set seen, then is reused across queries
		ks.mask = make([]bool, n)
	}
	return ks.mask[:n]
}

// Stage instrumentation for the three composites. Each helper owns one
// deferred span on q.Trace (nil = disabled, one branch of cost), so
// the serial and parallel query paths share identical stage
// boundaries: StagePostings around the first-element seed fetch,
// StageIntersect around the candidate-pruning passes over the
// remaining plan elements.

// seed runs the first-element postings fetch plus the id sort the
// merge intersections rely on, under one postings span. A non-nil pool
// fans the partition scans.
func (h *idHint) seed(q model.Query, pool *exec.Pool) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	var cands []model.ObjectID
	if pool != nil {
		cands = h.rangeQueryParallel(q.Interval, pool, nil)
	} else {
		cands = h.rangeQuery(q.Interval, nil)
	}
	model.SortIDs(cands)
	return cands
}

// probeRest is Algorithm 3 lines 4-29 for the binary variant: each
// further plan element traverses its HINT probing the candidate set,
// under one intersection span. A non-nil pool fans each probe pass.
//
// The candidates go into a bitmap rather than being sorted for the
// paper's binary searches (line 5), so each probe is an O(1) word test
// and cands is free for in-place reuse as the output buffer (each id is
// reported at most once).
func (ix *BinaryIndex) probeRest(q model.Query, plan []model.ElemID, cands []model.ObjectID, pool *exec.Pool) []model.ObjectID {
	defer q.Trace.StartStage(obs.StageIntersect).End()
	bs := postings.GetBitmapScratch()
	defer postings.PutBitmapScratch(bs)
	bm := &bs.Cands
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			return nil
		}
		hi := cands[0]
		for _, id := range cands[1:] {
			hi = max(hi, id)
		}
		bm.Reset(hi + 1)
		for _, id := range cands {
			bm.Set(id)
		}
		// Lines 7-29: traverse H[e] with the temporal flags, keeping the
		// candidates found in qualifying divisions.
		if pool != nil {
			cands = ix.hints[e].RangeQueryFilteredParallel(q.Interval, bm, pool, cands[:0])
		} else {
			cands = ix.hints[e].RangeQueryFilteredBitmap(q.Interval, bm, cands[:0])
		}
	}
	return cands
}

// intersectRest is Algorithm 4 lines 6-11 for the merge variant: each
// further plan element runs per-division merge intersections, under
// one intersection span.
func (ix *MergeIndex) intersectRest(q model.Query, plan []model.ElemID, cands []model.ObjectID, pool *exec.Pool) []model.ObjectID {
	defer q.Trace.StartStage(obs.StageIntersect).End()
	ks := keepPool.Get().(*keepScratch)
	defer keepPool.Put(ks)
	bs := postings.GetBitmapScratch()
	defer postings.PutBitmapScratch(bs)
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			return nil
		}
		// Dense candidate sets take the bitmap container path: divisions
		// mark id bits word-addressed instead of re-merging the full
		// candidate slice per division.
		if pool == nil && len(cands) >= postings.BitmapCutoff {
			cands = ix.hints[e].intersectBitmap(q.Interval, cands, &bs.Matched)
			continue
		}
		keep := ks.grown(len(cands))
		if pool != nil {
			cands = ix.hints[e].intersectParallel(q.Interval, cands, keep, pool)
		} else {
			cands = ix.hints[e].intersect(q.Interval, cands, keep)
		}
	}
	return cands
}

// intersectSlices is the hybrid variant's sliced merge intersection
// over the remaining plan elements, under one intersection span. A
// non-nil pool fans wide slice ranges, OR-ing the per-chunk keep masks
// (idempotent, so chunk order is irrelevant).
func (ix *HybridIndex) intersectSlices(q model.Query, plan []model.ElemID, cands []model.ObjectID, pool *exec.Pool) []model.ObjectID {
	defer q.Trace.StartStage(obs.StageIntersect).End()
	sf, sl := ix.sliceOf(q.Interval.Start), ix.sliceOf(q.Interval.End)
	ks := keepPool.Get().(*keepScratch)
	defer keepPool.Put(ks)
	bs := postings.GetBitmapScratch()
	defer postings.PutBitmapScratch(bs)
	keep := ks.grown(len(cands))
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			return nil
		}
		subs := ix.slices[e][sf : sl+1]
		// Candidates already overlap the query; any live replica proves
		// membership, and both the keep-mask and the bitmap marks are
		// idempotent, so replicated matches are harmless.
		serial := pool == nil || len(subs) < parallelCutoff
		if serial && len(cands) >= postings.BitmapCutoff {
			// Dense candidate sets take the bitmap container path.
			bm := &bs.Matched
			bm.Reset(cands[len(cands)-1] + 1)
			for _, sub := range subs {
				markSliceBitmap(sub, bm)
			}
			cands = bm.KeepSorted(cands)
			keep = keep[:len(cands)]
			continue
		}
		for i := range keep {
			keep[i] = false
		}
		if serial {
			for _, sub := range subs {
				markSlice(sub, cands, keep)
			}
		} else {
			markSlicesParallel(subs, cands, keep, pool)
		}
		cands = compact(cands, keep)
		keep = keep[:len(cands)]
	}
	return cands
}

// markSlicesParallel fans the slice merges across the pool, OR-ing the
// per-chunk masks into keep.
//
// irlint:cold opt-in parallel fan-out; per-chunk masks are the cost of concurrency, not the serial query path
func markSlicesParallel(subs [][]slicePair, cands []model.ObjectID, keep []bool, pool *exec.Pool) {
	masks := exec.MapChunks(pool, len(subs), parallelMinPer, func(lo, hi int) []bool {
		mask := make([]bool, len(cands))
		for _, sub := range subs[lo:hi] {
			markSlice(sub, cands, mask)
		}
		return mask
	})
	for _, mask := range masks {
		for i, k := range mask {
			if k {
				keep[i] = true
			}
		}
	}
}
