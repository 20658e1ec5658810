// Package tif implements the base temporal inverted file (tIF) of
// Section 2.2: every dictionary element e is associated with an id-sorted,
// time-aware postings list I[e], and time-travel IR queries are answered by
// Algorithm 1 — temporal filtering on the least frequent element's list
// followed by merge intersections with the remaining lists.
package tif

import (
	"repro/internal/dict"
	"repro/internal/model"
	"repro/internal/postings"
)

// Index is the base temporal inverted file.
type Index struct {
	lists [][]postings.Posting // indexed by ElemID
	freqs []int                // live postings per element, drives plan order
	live  int                  // live objects
}

// New builds a tIF over a collection in bulk: every object's posting is
// scattered, in id order, over its elements' lists in one exactly-sized
// arena, so every list is born sorted. Each list is a view with
// cap == len, so an Insert that appends to one reallocates it instead of
// writing into its neighbour.
func New(c *model.Collection) *Index {
	objs, freqs := c.IDOrder()
	arena, ends := postings.ByElement(freqs, len(objs), func(i int) *model.Object { return &objs[i] })
	return &Index{lists: postings.Carve(arena, ends), freqs: freqs, live: len(objs)}
}

// Insert adds an object to the postings list of each of its elements.
// IDs must arrive in increasing order for the lists to stay sorted; callers
// with out-of-order ids must call Resort afterwards.
func (ix *Index) Insert(o model.Object) {
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		ix.lists[e] = append(ix.lists[e], postings.Posting{ID: o.ID, Interval: o.Interval})
		ix.freqs[e]++
	}
	ix.live++
}

func (ix *Index) growTo(n int) {
	for len(ix.lists) < n {
		ix.lists = append(ix.lists, nil)
		ix.freqs = append(ix.freqs, 0)
	}
}

// Resort restores id order in every list after out-of-order insertions.
func (ix *Index) Resort() {
	for e := range ix.lists {
		postings.List(ix.lists[e]).Sort()
	}
}

// Delete locates the object's entry in each of its element lists by binary
// search and flags it with the tombstone sentinel.
func (ix *Index) Delete(o model.Object) {
	found := false
	for _, e := range o.Elems {
		if int(e) >= len(ix.lists) {
			continue
		}
		l := postings.List(ix.lists[e])
		if pos, ok := l.FindID(o.ID); ok && !postings.IsTombstone(l[pos].Interval) {
			l[pos].Interval = postings.Tombstone
			ix.freqs[e]--
			found = true
		}
	}
	if found {
		ix.live--
	}
}

// Len returns the number of live objects.
func (ix *Index) Len() int { return ix.live }

// Freqs exposes the live per-element frequencies (shared with composite
// indices that reuse tIF's plan ordering).
func (ix *Index) Freqs() []int { return ix.freqs }

// List exposes the raw postings list for an element (read-only use).
func (ix *Index) List(e model.ElemID) postings.List {
	if int(e) >= len(ix.lists) {
		return nil
	}
	return ix.lists[e]
}

// Query evaluates a time-travel IR query with Algorithm 1: sort q.d by
// ascending frequency, temporally filter the least frequent element's list
// into a candidate set, then merge-intersect with every other list.
// The result is in ascending id order.
func (ix *Index) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return nil
	}
	var planBuf [8]model.ElemID
	plan := dict.PlanOrder(planBuf[:0], q.Elems, ix.freqs)
	first := plan[0]
	if int(first) >= len(ix.lists) {
		return nil
	}
	cands := postings.List(ix.lists[first]).TemporalFilter(q.Interval, nil)
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.lists) {
			return nil
		}
		cands = postings.List(ix.lists[e]).IntersectAny(cands, cands[:0])
	}
	return cands
}

// SizeBytes estimates the resident size of the index: one 16-byte posting
// per (object, element) pair plus slice headers.
func (ix *Index) SizeBytes() int64 {
	var total int64
	for e := range ix.lists {
		total += int64(cap(ix.lists[e]))*16 + 24
	}
	return total + int64(len(ix.freqs))*8
}
