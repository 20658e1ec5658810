// Package join implements temporal IR joins — the query type the paper
// names as future work alongside ranking (Section 7). A join pairs
// objects from two collections whose lifespans overlap and whose
// descriptions share at least a requested number of elements (k = 0
// degenerates to a pure interval join, the workload of the HINT line of
// work).
//
// The algorithm is index-driven nested loop: the larger collection is
// indexed with a HINT, each object of the smaller side runs one range
// query, and the element predicate is evaluated with a linear merge over
// the two sorted element sets. This mirrors how the paper's systems
// would compose: temporal pruning first, set predicate second.
package join

import (
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
)

// Pair is one join result: ids from the left and right collections.
type Pair struct {
	Left  model.ObjectID
	Right model.ObjectID
}

// Config tunes Join.
type Config struct {
	// MinShared is the minimum number of common description elements
	// (0 = pure temporal join).
	MinShared int
	// M fixes the HINT bits for the inner index (0 = cost model).
	M int
}

// Join returns all (left, right) pairs with overlapping lifespans and at
// least MinShared common elements. Pairs are emitted grouped by left id;
// within a group the right ids follow the index's traversal order.
func Join(left, right *model.Collection, cfg Config) []Pair {
	if left.Len() == 0 || right.Len() == 0 {
		return nil
	}
	// Index the larger side, probe with the smaller; remember whether the
	// output orientation must flip.
	probe, build, flipped := left, right, false
	if probe.Len() > build.Len() {
		probe, build, flipped = build, probe, true
	}

	span, _ := build.Span()
	if ps, ok := probe.Span(); ok {
		span = span.Union(ps)
	}
	m := cfg.M
	if m <= 0 {
		m = hint.EstimateM(build.Objects, span, hint.DefaultCostModelConfig())
	}
	if m > domain.MaxBits {
		m = domain.MaxBits
	}
	dom, err := domain.Make(span.Start, span.End, m)
	if err != nil {
		return nil
	}
	entries := make([]postings.Posting, len(build.Objects))
	for i := range build.Objects {
		entries[i] = postings.Posting{ID: build.Objects[i].ID, Interval: build.Objects[i].Interval}
	}
	ix := hint.Build(dom, entries)

	var out []Pair
	var hits []model.ObjectID
	for i := range probe.Objects {
		po := &probe.Objects[i]
		hits = ix.RangeQuery(po.Interval, hits[:0])
		for _, id := range hits {
			bo := &build.Objects[id]
			if cfg.MinShared > 0 && SharedElements(po.Elems, bo.Elems) < cfg.MinShared {
				continue
			}
			if flipped {
				out = append(out, Pair{Left: bo.ID, Right: po.ID})
			} else {
				out = append(out, Pair{Left: po.ID, Right: bo.ID})
			}
		}
	}
	return out
}

// SharedElements counts common entries of two sorted element sets.
func SharedElements(a, b []model.ElemID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// SelfJoin returns all unordered pairs (i < j) within one collection with
// overlapping lifespans and at least MinShared common elements — e.g.
// "sessions that ran concurrently and streamed k of the same tracks".
func SelfJoin(c *model.Collection, cfg Config) []Pair {
	if c.Len() == 0 {
		return nil
	}
	span, _ := c.Span()
	m := cfg.M
	if m <= 0 {
		m = hint.EstimateM(c.Objects, span, hint.DefaultCostModelConfig())
	}
	if m > domain.MaxBits {
		m = domain.MaxBits
	}
	dom, err := domain.Make(span.Start, span.End, m)
	if err != nil {
		return nil
	}
	entries := make([]postings.Posting, len(c.Objects))
	for i := range c.Objects {
		entries[i] = postings.Posting{ID: c.Objects[i].ID, Interval: c.Objects[i].Interval}
	}
	ix := hint.Build(dom, entries)

	var out []Pair
	var hits []model.ObjectID
	for i := range c.Objects {
		o := &c.Objects[i]
		hits = ix.RangeQuery(o.Interval, hits[:0])
		for _, id := range hits {
			if id <= o.ID {
				continue // emit each unordered pair once
			}
			other := &c.Objects[id]
			if cfg.MinShared > 0 && SharedElements(o.Elems, other.Elems) < cfg.MinShared {
				continue
			}
			out = append(out, Pair{Left: o.ID, Right: id})
		}
	}
	return out
}
