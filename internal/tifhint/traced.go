package tifhint

import (
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/postings"
)

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

// seed is the first-element fetch under one postings span: Algorithm 2
// over the id-sorted divisions (each residual comparison a scan, the
// trade of the paper's footnote 8), then the id sort the merges need.
func (h *idHint) seed(q model.Query) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	var cands []model.ObjectID
	hint.Visit(h.dom, q.Interval, func(lv hint.LevelVisit) {
		h.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *idPart) {
			ob := lv.Oblige(j)
			cands = scanDivision(p.o, ob.CheckStart, ob.CheckEnd, q.Interval, cands)
			if ob.First {
				// Replicas never need the end check.
				cands = scanDivision(p.r, ob.CheckStart, false, q.Interval, cands)
			}
		})
	})
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
// further plan element keeps the candidates found in its relevant
// divisions, under one intersection span.
func (ix *MergeIndex) intersectRest(q model.Query, plan []model.ElemID, cands []model.ObjectID) []model.ObjectID {
	defer q.Trace.StartStage(obs.StageIntersect).End()
	k := postings.GetLater()
	defer postings.PutLater(k)
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			return nil
		}
		cands = ix.hints[e].intersect(q.Interval, k, cands)
	}
	return cands
}

// intersectSlices is the hybrid variant's intersection over the remaining
// plan elements, under one intersection span: each keeps the candidates
// found in its sub-lists of the slices q spans. Candidates already
// overlap the query, so any replica proves membership, and a kernel pass
// is idempotent, so replicated matches are harmless.
func (ix *HybridIndex) intersectSlices(q model.Query, plan []model.ElemID, cands []model.ObjectID) []model.ObjectID {
	defer q.Trace.StartStage(obs.StageIntersect).End()
	sf, sl := ix.slots.Of(q.Interval.Start), ix.slots.Of(q.Interval.End)
	k := postings.GetLater()
	defer postings.PutLater(k)
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			return nil
		}
		k.Begin(cands, true)
		for _, sub := range ix.slices[e][sf : sl+1] {
			postings.Mark(k, sub)
		}
		cands = k.Keep(cands[:0])
	}
	return cands
}
