package route

import (
	"time"

	"repro/internal/model"
)

// Index answers every query through the sub-build the router's cost
// model picks for the query's feature bucket, and feeds the observed
// duration back into the model. Updates fan out to every sub-build, so
// all of them stay complete answers and routing is purely a performance
// decision — result sets are identical whichever build serves.
type Index struct {
	router *Router
	names  []string
	subs   []model.Index
	freqs  []int   // live postings per element, for MinFreqFrac
	span   float64 // data-domain width fixed at build time
}

// NewIndex wires named sub-builds (parallel to classes) into a routed
// index over the collection they were built from. The feature extractor
// snapshots the collection's element frequencies and temporal span;
// frequencies track subsequent updates, the span stays fixed until the
// next rebuild (compaction re-derives it).
func NewIndex(names []string, classes []Class, subs []model.Index, c *model.Collection) *Index {
	ix := &Index{
		router: New(names, classes),
		names:  append([]string(nil), names...),
		subs:   subs,
		freqs:  model.CountElems(c.Objects, c.DictSize),
		span:   1,
	}
	if iv, ok := c.Span(); ok {
		ix.span = float64(uint64(iv.End-iv.Start)) + 1
	}
	return ix
}

// Router exposes the cost model (decision counts, estimates).
func (ix *Index) Router() *Router { return ix.router }

// Methods returns the sub-method names in decision-index order.
func (ix *Index) Methods() []string { return append([]string(nil), ix.names...) }

// AdoptRouter replaces the freshly seeded router with a predecessor's,
// carrying learned cost estimates and decision counts across a
// compaction rebuild. It must run before the index is published for
// reads (the engine's build hook calls it pre-swap); routers only
// transfer between indexes routing the same method list.
func (ix *Index) AdoptRouter(r *Router) {
	if r != nil && len(r.names) == len(ix.subs) {
		ix.router = r
	}
}

// features extracts the query's regime coordinates. MinFreqFrac uses
// the tracked per-element live frequencies over the current live count;
// unknown elements count as frequency zero (the query returns nothing
// fast, whichever method runs).
func (ix *Index) features(q model.Query) Features {
	f := Features{
		NumElems:   len(q.Elems),
		ExtentFrac: (float64(uint64(q.Interval.End-q.Interval.Start)) + 1) / ix.span,
	}
	if live := ix.subs[0].Len(); live > 0 && len(q.Elems) > 0 {
		min := live
		for _, e := range q.Elems {
			fr := 0
			if int(e) < len(ix.freqs) {
				fr = ix.freqs[e]
			}
			if fr < min {
				min = fr
			}
		}
		f.MinFreqFrac = float64(min) / float64(live)
	}
	return f
}

// Query routes the query to the chosen sub-build, times it, and folds
// the observation back into the cost model. The routing decision is
// recorded on the query's trace when one is attached.
func (ix *Index) Query(q model.Query) []model.ObjectID {
	f := ix.features(q)
	mi := ix.router.Choose(f)
	start := time.Now()
	ids := ix.subs[mi].Query(q)
	ix.router.Observe(mi, f, time.Since(start))
	q.Trace.SetRoute(ix.names[mi])
	return ids
}

// Insert adds the object to every sub-build (routing must never change
// result sets) and tracks element frequencies for feature extraction.
func (ix *Index) Insert(o model.Object) {
	for _, s := range ix.subs {
		s.Insert(o)
	}
	for _, e := range o.Elems {
		for len(ix.freqs) <= int(e) {
			ix.freqs = append(ix.freqs, 0)
		}
		ix.freqs[e]++
	}
}

// Delete tombstones the object in every sub-build.
func (ix *Index) Delete(o model.Object) {
	before := ix.subs[0].Len()
	for _, s := range ix.subs {
		s.Delete(o)
	}
	if ix.subs[0].Len() == before {
		return // unknown or already-dead object: frequencies unchanged
	}
	for _, e := range o.Elems {
		if int(e) < len(ix.freqs) && ix.freqs[e] > 0 {
			ix.freqs[e]--
		}
	}
}

// Len returns the live object count (identical across sub-builds).
func (ix *Index) Len() int { return ix.subs[0].Len() }

// SizeBytes sums the resident size of every sub-build — the honest cost
// of keeping multiple builds to route across.
func (ix *Index) SizeBytes() int64 {
	var total int64
	for _, s := range ix.subs {
		total += s.SizeBytes()
	}
	return total + int64(len(ix.freqs))*8
}
