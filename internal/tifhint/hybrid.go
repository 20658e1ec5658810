package tifhint

import (
	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

// HybridIndex is tIF+HINT+Slicing (Section 3.2): each postings list is
// stored twice. An id-sorted HINT answers the first element's range query
// with full partition pruning; a sliced copy of <id, t_st> pairs serves
// the remaining intersections over far fewer, coarser fragments than the
// HINT divisions would, avoiding the fragmentation that hurts MergeIndex
// on multi-element queries.
type HybridIndex struct {
	shared    domain.Domain
	hints     []*idHint
	slices    [][][]postings.Pair // [elem][slice], id-sorted
	freqs     []int
	numSlices int
	slots     domain.Slots
	live      int
}

// defaultHybridSlices matches the tuned tIF+Slicing configuration.
const defaultHybridSlices = 50

// NewHybrid builds the dual-copy hybrid with the bulk kernel: the HINTs
// as NewMerge builds them, the slice lists carved from one arena.
func NewHybrid(c *model.Collection, opts ...Option) *HybridIndex {
	cfg := config{m: defaultMergeM, numSlices: defaultHybridSlices}
	for _, o := range opts {
		o(&cfg)
	}
	span := domain.Span(c)
	ix := &HybridIndex{
		shared:    domain.Fit(span, cfg.m),
		numSlices: cfg.numSlices,
		slots:     domain.NewSlots(span, cfg.numSlices),
		live:      len(c.Objects),
	}
	b := newBulk(ix.shared, c)
	ix.hints, ix.freqs = b.idHints(ix.shared), b.freqs
	ix.carveSlices(b)
	return ix
}

func (ix *HybridIndex) place(o *model.Object) {
	p := postings.Posting{ID: o.ID, Interval: o.Interval}
	first, last := ix.slots.Of(o.Interval.Start), ix.slots.Of(o.Interval.End)
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		if ix.hints[e] == nil {
			ix.hints[e] = newIDHint(ix.shared)
			ix.slices[e] = make([][]postings.Pair, ix.numSlices)
		}
		ix.hints[e].insert(p)
		for s := first; s <= last; s++ {
			ix.slices[e][s] = postings.InsertByID(ix.slices[e][s], postings.Pair{ID: o.ID, Start: o.Interval.Start})
		}
		ix.freqs[e]++
	}
}

// Insert adds one object to both copies.
func (ix *HybridIndex) Insert(o model.Object) {
	ix.place(&o)
	ix.live++
}

// Delete tombstones the object's entries in the HINT copy. The sliced
// copy keeps its pairs: a query seeds its candidates from the HINT copy
// of its first element, so they are live, and reads later elements'
// pairs by id membership alone.
func (ix *HybridIndex) Delete(o model.Object) {
	p := postings.Posting{ID: o.ID, Interval: o.Interval}
	found := false
	for _, e := range o.Elems {
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			continue
		}
		if ix.hints[e].delete(p) {
			ix.freqs[e]--
			found = true
		}
	}
	if found {
		ix.live--
	}
}

func (ix *HybridIndex) growTo(n int) {
	for len(ix.hints) < n {
		ix.hints = append(ix.hints, nil)
		ix.slices = append(ix.slices, nil)
		ix.freqs = append(ix.freqs, 0)
	}
}

// Len returns the number of live objects.
func (ix *HybridIndex) Len() int { return ix.live }

// Query evaluates the hybrid plan: HINT range query on the least frequent
// element, then one later-element pass per remaining element over its
// sub-lists of the slices q spans.
func (ix *HybridIndex) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return nil
	}
	var planBuf [8]model.ElemID
	plan := dict.PlanOrder(planBuf[:0], q.Elems, ix.freqs)
	first := plan[0]
	if int(first) >= len(ix.hints) || ix.hints[first] == nil {
		return nil
	}
	cands := ix.hints[first].seed(q)
	if len(plan) == 1 {
		return cands
	}
	return ix.intersectSlices(q, plan, cands)
}

// SizeBytes sums both copies: the HINTs plus the 12-byte slice pairs.
func (ix *HybridIndex) SizeBytes() int64 {
	var total int64
	for e := range ix.hints {
		if ix.hints[e] != nil {
			total += ix.hints[e].sizeBytes()
		}
		for s := range ix.slices[e] {
			total += int64(cap(ix.slices[e][s]))*12 + 24
		}
	}
	return total + int64(len(ix.freqs))*8
}

// entryCount counts entries in both copies.
func (ix *HybridIndex) entryCount() int64 {
	var total int64
	for e := range ix.hints {
		if ix.hints[e] != nil {
			total += ix.hints[e].entryCount()
		}
		for s := range ix.slices[e] {
			total += int64(len(ix.slices[e][s]))
		}
	}
	return total
}
