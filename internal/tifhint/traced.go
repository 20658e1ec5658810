package tifhint

import (
	"sync"

	"repro/internal/hint"
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
// make stays out of line instead of being inlined into every
// intersection loop.
//
//go:noinline
func (ks *keepScratch) grown(n int) []bool {
	if cap(ks.mask) < n {
		ks.mask = make([]bool, n)
	}
	return ks.mask[:n]
}

// Stage instrumentation for the three composites. Each helper owns one
// deferred span on q.Trace (nil = disabled, one branch of cost):
// StagePostings around the first-element fetch, StageIntersect around
// the candidate-pruning passes over the remaining plan elements.

// seedRange is the binary variant's first-element fetch (Algorithm 3
// lines 1-3) under one postings span. The probes test candidates in a
// bitmap, so the fetch is not sorted.
func seedRange(h *hint.Index, q model.Query) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	return h.RangeQuery(q.Interval, nil)
}

// seed runs the first-element postings fetch plus the id sort the
// merge intersections rely on, under one postings span.
func (h *idHint) seed(q model.Query) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	cands := h.rangeQuery(q.Interval, nil)
	model.SortIDs(cands)
	return cands
}

// probeRest is Algorithm 3 lines 4-29 for the binary variant: each
// further plan element traverses its HINT probing the candidate set,
// under one intersection span.
//
// The candidates go into a bitmap rather than being sorted for the
// paper's binary searches (line 5), so each probe is an O(1) word test
// and cands is free for in-place reuse as the output buffer (each id is
// reported at most once).
func (ix *BinaryIndex) probeRest(q model.Query, plan []model.ElemID, cands []model.ObjectID) []model.ObjectID {
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
		cands = ix.hints[e].RangeQueryFilteredBitmap(q.Interval, bm, cands[:0])
	}
	return cands
}

// intersectRest is Algorithm 4 lines 6-11 for the merge variant: each
// further plan element runs per-division merge intersections, under
// one intersection span.
func (ix *MergeIndex) intersectRest(q model.Query, plan []model.ElemID, cands []model.ObjectID) []model.ObjectID {
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
		if len(cands) >= postings.BitmapCutoff {
			cands = ix.hints[e].intersectBitmap(q.Interval, cands, &bs.Matched)
			continue
		}
		cands = ix.hints[e].intersect(q.Interval, cands, ks.grown(len(cands)))
	}
	return cands
}

// intersectSlices is the hybrid variant's sliced merge intersection
// over the remaining plan elements, under one intersection span.
func (ix *HybridIndex) intersectSlices(q model.Query, plan []model.ElemID, cands []model.ObjectID) []model.ObjectID {
	defer q.Trace.StartStage(obs.StageIntersect).End()
	sf, sl := ix.slots.Of(q.Interval.Start), ix.slots.Of(q.Interval.End)
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
		if len(cands) >= postings.BitmapCutoff {
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
		for _, sub := range subs {
			markSlice(sub, cands, keep)
		}
		cands = compact(cands, keep)
		keep = keep[:len(cands)]
	}
	return cands
}

// markSlice is the per-slice merge of intersectSlices. Size-skewed
// pairs gallop through the larger side instead of merging both.
func markSlice(sub []slicePair, cands []model.ObjectID, keep []bool) {
	if len(cands) > len(sub)*postings.GallopRatio {
		lo := 0
		for j := range sub {
			lo = postings.GallopLowerBound(cands, sub[j].ID, lo)
			if lo == len(cands) {
				return
			}
			if cands[lo] == sub[j].ID {
				if !sub[j].Dead {
					keep[lo] = true
				}
				lo++
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(cands) && j < len(sub) {
		switch {
		case cands[i] < sub[j].ID:
			i++
		case cands[i] > sub[j].ID:
			j++
		default:
			if !sub[j].Dead {
				keep[i] = true
			}
			i++
			j++
		}
	}
}

// markSliceBitmap sets the bit of every live replica in the slice — the
// bitmap-container counterpart of markSlice, used when the candidate set
// is dense enough that per-slice merges would re-walk it wholesale.
func markSliceBitmap(sub []slicePair, bm *postings.Bitmap) {
	for j := range sub {
		if !sub[j].Dead {
			bm.Set(sub[j].ID)
		}
	}
}
