package tifhint

import (
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
)

// bulk is the build kernel the three variants share, in place of one
// Insert per object. Pass 1 (hint.AssignObjects) runs the HINT assignment
// of every object once, in id order — every per-element HINT uses the same
// shared domain, so an object's divisions are the same in each of its
// elements' HINTs. Pass 2 scatters each assignment over its object's
// elements, so that every element's run comes out ordered by directory key
// and then by id, ready to be cut into that element's hierarchy; the
// elements are then cut in parallel (each).
type bulk struct {
	objs    []model.Object // ascending by id
	freqs   []int
	run     []hint.Assignment
	entries []postings.Posting // entries[i] is the entry run[i] assigns
	start   []int              // element e's run is run[start[e]:start[e+1]]
}

func newBulk(dom domain.Domain, c *model.Collection) *bulk {
	objs, freqs := c.IDOrder()
	asg := hint.AssignObjects(dom, objs)
	// Count each element's run, then turn the counts into write cursors.
	cursor := make([]int, len(freqs))
	for _, a := range asg {
		for _, e := range objs[a.Obj].Elems {
			cursor[e]++
		}
	}
	start := make([]int, len(freqs)+1)
	for e, n := range cursor {
		start[e+1] = start[e] + n
		cursor[e] = start[e]
	}
	b := &bulk{objs: objs, freqs: freqs, start: start}
	b.run = make([]hint.Assignment, start[len(freqs)])
	b.entries = make([]postings.Posting, len(b.run))
	for _, a := range asg {
		o := &objs[a.Obj]
		for _, e := range o.Elems {
			b.run[cursor[e]] = a
			b.entries[cursor[e]] = postings.Posting{ID: o.ID, Interval: o.Interval}
			cursor[e]++
		}
	}
	return b
}

// each calls fn for every element some object carries, with the bounds of
// its run: the elements in parallel, the longest run first (hint.Fan), so
// fn must write only what belongs to element e.
func (b *bulk) each(fn func(e, lo, hi int)) {
	hint.Fan(len(b.freqs), func(e int) int { return b.start[e+1] - b.start[e] }, func() struct{} { return struct{}{} }, func(_ struct{}, e int) {
		fn(e, b.start[e], b.start[e+1])
	})
}

// hints cuts every element's HINT from its run.
func (b *bulk) hints(dom domain.Domain) []*hint.Index {
	out := make([]*hint.Index, len(b.freqs))
	b.each(func(e, lo, hi int) {
		out[e] = hint.FromRun(dom, b.run[lo:hi], b.entries[lo:hi:hi])
	})
	return out
}

// idHints cuts every element's id-sorted HINT from its run: a division's
// stretch of the run is already in id order, so each division is a view
// of the entries with cap == len.
func (b *bulk) idHints(dom domain.Domain) []*idHint {
	out := make([]*idHint, len(b.freqs))
	b.each(func(e, lo, hi int) {
		h := newIDHint(dom)
		run, entries := b.run[lo:hi], b.entries[lo:hi:hi]
		hint.Cut(dom.M, run, func(level int, keys []uint32, parts []*idPart) {
			h.levels[level] = hint.Directory[idPart]{Keys: keys, Parts: parts}
		}, func(p *idPart, replica bool, lo, hi int) {
			if replica {
				p.r = entries[lo:hi:hi]
				return
			}
			p.o = entries[lo:hi:hi]
			h.live += hi - lo
		})
		out[e] = h
	})
	return out
}

// carveSlices builds the hybrid's second copy: for every element, one
// id-sorted list of <id, t_st> pairs per slice, carved from one arena with
// cap == len.
func (ix *HybridIndex) carveSlices(b *bulk) {
	ix.slices = postings.BySlice(b.objs, b.freqs, ix.numSlices, func(o *model.Object) (int, int) {
		return ix.slots.Of(o.Interval.Start), ix.slots.Of(o.Interval.End)
	}, func(o *model.Object) slicePair { return slicePair{ID: o.ID, Start: o.Interval.Start} })
}
