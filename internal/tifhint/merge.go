package tifhint

import (
	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

// MergeIndex is the tIF+HINT variant of Algorithm 4: per-element HINTs
// with id-sorted divisions. The first element's candidates come from a
// range query; every further element is intersected division-by-division
// in merge-sort fashion, with no temporal comparisons at all — the initial
// candidate set already satisfies the temporal predicate.
type MergeIndex struct {
	shared domain.Domain
	hints  []*idHint
	freqs  []int
	live   int
}

// NewMerge builds the merge-sort tIF+HINT variant with the bulk kernel:
// every division is a view of one arena, already in id order.
func NewMerge(c *model.Collection, opts ...Option) *MergeIndex {
	cfg := config{m: defaultMergeM}
	for _, o := range opts {
		o(&cfg)
	}
	ix := &MergeIndex{shared: domain.Fit(domain.Span(c), cfg.m), live: len(c.Objects)}
	b := newBulk(ix.shared, c)
	ix.hints, ix.freqs = b.idHints(ix.shared), b.freqs
	return ix
}

func (ix *MergeIndex) place(o *model.Object) {
	p := postings.Posting{ID: o.ID, Interval: o.Interval}
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		if ix.hints[e] == nil {
			ix.hints[e] = newIDHint(ix.shared)
		}
		ix.hints[e].insert(p)
		ix.freqs[e]++
	}
}

// Insert adds one object. Divisions stay id-sorted for free when ids grow
// monotonically (the common case the paper notes); out-of-order ids use a
// positioned insert.
func (ix *MergeIndex) Insert(o model.Object) {
	ix.place(&o)
	ix.live++
}

// Delete tombstones the object's entries in each element HINT.
func (ix *MergeIndex) Delete(o model.Object) {
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

func (ix *MergeIndex) growTo(n int) {
	for len(ix.hints) < n {
		ix.hints = append(ix.hints, nil)
		ix.freqs = append(ix.freqs, 0)
	}
}

// Len returns the number of live objects.
func (ix *MergeIndex) Len() int { return ix.live }

// Query implements Algorithm 4.
func (ix *MergeIndex) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return nil
	}
	var planBuf [8]model.ElemID
	plan := dict.PlanOrder(planBuf[:0], q.Elems, ix.freqs)
	first := plan[0]
	if int(first) >= len(ix.hints) || ix.hints[first] == nil {
		return nil
	}
	// Line 3: range query for the initial candidates (seed also sorts
	// by id, line 5); lines 6-11: per-division intersections —
	// both helpers own their stage spans.
	cands := ix.hints[first].seed(q)
	return ix.intersectRest(q, plan, cands)
}

// SizeBytes sums the per-element HINT sizes.
func (ix *MergeIndex) SizeBytes() int64 {
	var total int64
	for _, h := range ix.hints {
		if h != nil {
			total += h.sizeBytes()
		}
	}
	return total + int64(len(ix.freqs))*8
}

// entryCount sums stored entries across all postings HINTs.
func (ix *MergeIndex) entryCount() int64 {
	var total int64
	for _, h := range ix.hints {
		if h != nil {
			total += h.entryCount()
		}
	}
	return total
}
