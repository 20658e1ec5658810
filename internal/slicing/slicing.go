// Package slicing implements tIF+Slicing, the temporal inverted file of
// Berberich et al. (Section 2.2): the time domain is broken into a fixed
// number of disjoint slices and every postings list is vertically divided
// into per-slice sub-lists, replicating an entry into every slice its
// interval overlaps. Queries touch only the sub-lists of temporally
// relevant slices; duplicates from replication are suppressed with the
// reference-value method of Dittrich & Seeger instead of hashing.
package slicing

import (
	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

// Index is the tIF+Slicing index.
type Index struct {
	numSlices int
	// slots clamps timestamps outside the span the index was built for
	// (late insertions may exceed it) to the edge slices; results stay
	// exact because every comparison uses the original timestamps.
	slots domain.Slots
	lists [][][]postings.Posting // [elem][slice] -> id-sorted sub-list
	freqs []int
	live  int
}

// Option configures New.
type Option func(*config)

type config struct {
	numSlices int
}

// WithSlices fixes the number of time-domain slices. The paper's tuned
// default after the Figure 8 sweep is 50.
func WithSlices(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.numSlices = n
		}
	}
}

// DefaultSlices is the slice count the paper settles on after tuning.
const DefaultSlices = 50

// New builds a tIF+Slicing index over a collection in bulk: the entries
// are counted per (element, slice), then every object's replicas are
// scattered, in id order, into one exactly-sized arena, so every sub-list
// is born id-sorted (postings.BySlice).
func New(c *model.Collection, opts ...Option) *Index {
	cfg := config{numSlices: DefaultSlices}
	for _, o := range opts {
		o(&cfg)
	}
	objs, freqs := c.IDOrder()
	ix := &Index{
		numSlices: cfg.numSlices,
		slots:     domain.NewSlots(domain.Span(c), cfg.numSlices),
		freqs:     freqs,
		live:      len(objs),
	}
	ix.lists = postings.BySlice(objs, freqs, ix.numSlices, func(o *model.Object) (int, int) {
		return ix.slots.Of(o.Interval.Start), ix.slots.Of(o.Interval.End)
	}, func(o *model.Object) postings.Posting { return postings.Posting{ID: o.ID, Interval: o.Interval} })
	return ix
}

// NumSlices returns the configured slice count.
func (ix *Index) NumSlices() int { return ix.numSlices }

// Insert replicates the object's postings entry into every slice its
// interval overlaps, for each of its elements.
func (ix *Index) Insert(o model.Object) {
	first, last := ix.slots.Of(o.Interval.Start), ix.slots.Of(o.Interval.End)
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		if ix.lists[e] == nil {
			ix.lists[e] = make([][]postings.Posting, ix.numSlices)
		}
		for s := first; s <= last; s++ {
			ix.lists[e][s] = append(ix.lists[e][s], postings.Posting{ID: o.ID, Interval: o.Interval})
		}
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

// Delete locates and tombstones the object's entries in every overlapped
// slice of every element list.
func (ix *Index) Delete(o model.Object) {
	first, last := ix.slots.Of(o.Interval.Start), ix.slots.Of(o.Interval.End)
	found := false
	for _, e := range o.Elems {
		if int(e) >= len(ix.lists) || ix.lists[e] == nil {
			continue
		}
		hit := false
		for s := first; s <= last; s++ {
			l := postings.List(ix.lists[e][s])
			if pos, ok := l.FindID(o.ID); ok && !postings.IsTombstone(l[pos].Interval) {
				l[pos].Interval = postings.Tombstone
				hit = true
			}
		}
		if hit {
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

// Query evaluates a time-travel IR query: temporal filtering with
// reference-value de-duplication over the relevant sub-lists of the least
// frequent element, then per-slice merge intersections for the rest.
func (ix *Index) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return ix.queryTemporalOnly(q.Interval)
	}
	plan := dict.PlanOrder(q.Elems, ix.freqs)
	first := plan[0]
	if int(first) >= len(ix.lists) || ix.lists[first] == nil {
		return nil
	}
	sf, sl := ix.slots.Of(q.Interval.Start), ix.slots.Of(q.Interval.End)

	// Phase 1: candidates from the least frequent element. Each qualifying
	// object is collected exactly once — from the slice holding its
	// reference value — so the per-slice id-sorted outputs just need one
	// merge (postings.MergeSortedIDLists).
	perSlice := make([][]model.ObjectID, 0, sl-sf+1)
	for s := sf; s <= sl; s++ {
		var ids []model.ObjectID
		for _, p := range ix.lists[first][s] {
			if p.Interval.Overlaps(q.Interval) &&
				ix.slots.Of(postings.RefValue(p.Interval.Start, q.Interval.Start)) == s {
				ids = append(ids, p.ID)
			}
		}
		perSlice = append(perSlice, ids)
	}
	cands := postings.MergeSortedIDLists(perSlice)

	// Phase 2: intersect candidates with each remaining element. A live
	// candidate overlaps the query, so any replica of it in a relevant
	// sub-list proves the element is in its description; the keep-mask
	// is idempotent, so replicated matches need no de-duplication at all
	// (only phase 1, which *emits*, needs the reference values).
	keep := make([]bool, len(cands))
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.lists) || ix.lists[e] == nil {
			return nil
		}
		for i := range keep {
			keep[i] = false
		}
		for s := sf; s <= sl; s++ {
			sub := ix.lists[e][s]
			i, j := 0, 0
			for i < len(cands) && j < len(sub) {
				switch {
				case cands[i] < sub[j].ID:
					i++
				case cands[i] > sub[j].ID:
					j++
				default:
					if !postings.IsTombstone(sub[j].Interval) {
						keep[i] = true
					}
					i++
					j++
				}
			}
		}
		w := 0
		for i, k := range keep {
			if k {
				cands[w] = cands[i]
				w++
			}
		}
		cands = cands[:w]
		keep = keep[:w]
	}
	return cands
}

func (ix *Index) queryTemporalOnly(q model.Interval) []model.ObjectID {
	sf, sl := ix.slots.Of(q.Start), ix.slots.Of(q.End)
	var out []model.ObjectID
	for e := range ix.lists {
		if ix.lists[e] == nil {
			continue
		}
		for s := sf; s <= sl; s++ {
			for _, p := range ix.lists[e][s] {
				if p.Interval.Overlaps(q) &&
					ix.slots.Of(postings.RefValue(p.Interval.Start, q.Start)) == s {
					out = append(out, p.ID)
				}
			}
		}
	}
	model.SortIDs(out)
	return model.DedupIDs(out)
}

// SizeBytes estimates the resident size: replicated 16-byte entries plus
// per-sub-list headers.
func (ix *Index) SizeBytes() int64 {
	var total int64
	for e := range ix.lists {
		for s := range ix.lists[e] {
			total += int64(cap(ix.lists[e][s]))*16 + 24
		}
	}
	return total + int64(len(ix.freqs))*8
}

// EntryCount returns the total number of (replicated) postings entries —
// the quantity the Figure 8 size curve tracks.
func (ix *Index) EntryCount() int64 {
	var total int64
	for e := range ix.lists {
		for s := range ix.lists[e] {
			total += int64(len(ix.lists[e][s]))
		}
	}
	return total
}
