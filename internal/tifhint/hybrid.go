package tifhint

import (
	"sort"

	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/postings"
)

// slicePair is one entry of the hybrid's second copy: the object id plus
// only its start timestamp — enough for the reference-value
// de-duplication, as Section 3.2 observes (intersections after the first
// element need no temporal predicate). Dead marks a deleted entry; it
// sits in the padding after ID, so the pair stays 16 bytes, and no start
// timestamp is spent as a sentinel.
type slicePair struct {
	ID    model.ObjectID
	Dead  bool
	Start model.Timestamp
}

// HybridIndex is tIF+HINT+Slicing (Section 3.2): each postings list is
// stored twice. An id-sorted HINT answers the first element's range query
// with full partition pruning; a sliced copy of <id, t_st> pairs serves
// the remaining intersections over far fewer, coarser fragments than the
// HINT divisions would, avoiding the fragmentation that hurts MergeIndex
// on multi-element queries.
type HybridIndex struct {
	shared    domain.Domain
	hints     []*idHint
	slices    [][][]slicePair // [elem][slice], id-sorted
	freqs     []int
	numSlices int
	slots     domain.Slots
	live      int
	m         int
}

// DefaultHybridSlices matches the tuned tIF+Slicing configuration.
const DefaultHybridSlices = 50

// NewHybrid builds the dual-copy hybrid with the bulk kernel: the HINTs
// as NewMerge builds them, the slice lists carved from one arena.
func NewHybrid(c *model.Collection, opts ...Option) *HybridIndex {
	cfg := config{m: DefaultMergeM, numSlices: DefaultHybridSlices}
	for _, o := range opts {
		o(&cfg)
	}
	span := domain.Span(c)
	ix := &HybridIndex{
		shared:    domain.Fit(span, cfg.m),
		numSlices: cfg.numSlices,
		slots:     domain.NewSlots(span, cfg.numSlices),
		live:      len(c.Objects),
		m:         cfg.m,
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
			ix.slices[e] = make([][]slicePair, ix.numSlices)
		}
		ix.hints[e].insert(p)
		for s := first; s <= last; s++ {
			ix.slices[e][s] = insertPairByID(ix.slices[e][s], slicePair{ID: o.ID, Start: o.Interval.Start})
		}
		ix.freqs[e]++
	}
}

func insertPairByID(s []slicePair, p slicePair) []slicePair {
	if n := len(s); n == 0 || s[n-1].ID < p.ID {
		return append(s, p)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].ID > p.ID })
	s = append(s, slicePair{})
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// Insert adds one object to both copies.
func (ix *HybridIndex) Insert(o model.Object) {
	ix.place(&o)
	ix.live++
}

// Delete tombstones the object's entries in both copies.
func (ix *HybridIndex) Delete(o model.Object) {
	p := postings.Posting{ID: o.ID, Interval: o.Interval}
	first, last := ix.slots.Of(o.Interval.Start), ix.slots.Of(o.Interval.End)
	found := false
	for _, e := range o.Elems {
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			continue
		}
		if ix.hints[e].delete(p) {
			ix.freqs[e]--
			found = true
		}
		for s := first; s <= last; s++ {
			sub := ix.slices[e][s]
			i := sort.Search(len(sub), func(i int) bool { return sub[i].ID >= o.ID })
			if i < len(sub) && sub[i].ID == o.ID {
				sub[i].Dead = true
			}
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

// M returns the grid bits in use.
func (ix *HybridIndex) M() int { return ix.m }

// NumSlices returns the slice count of the second copy.
func (ix *HybridIndex) NumSlices() int { return ix.numSlices }

// Query evaluates the hybrid plan: HINT range query on the least frequent
// element, then sliced merge intersections with reference-value
// de-duplication for the rest.
func (ix *HybridIndex) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return ix.queryTemporalOnly(q)
	}
	plan := dict.PlanOrder(q.Elems, ix.freqs)
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

func (ix *HybridIndex) queryTemporalOnly(q model.Query) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	var out []model.ObjectID
	for _, h := range ix.hints {
		if h != nil {
			out = h.rangeQuery(q.Interval, out)
		}
	}
	model.SortIDs(out)
	return model.DedupIDs(out)
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

// EntryCount counts entries in both copies.
func (ix *HybridIndex) EntryCount() int64 {
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
