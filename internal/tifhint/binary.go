package tifhint

import (
	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
)

// BinaryIndex is the tIF+HINT variant of Algorithm 3: every postings list
// I[e] is organized as a HINT H[e] with the full subs+sort optimizations.
// The least frequent query element is answered with a plain HINT range
// query; every further element traverses its HINT bottom-up, probing the
// candidate set while still applying the compfirst/complast temporal
// pruning. The paper probes with binary searches into the id-sorted
// candidates; here each probe is a bit test against a candidate bitmap,
// which changes the speed, not the result.
type BinaryIndex struct {
	shared domain.Domain
	hints  []*hint.Index // per element, nil when unused
	freqs  []int
	live   int
}

// NewBinary builds the binary tIF+HINT variant with the bulk
// kernel: one hint.FromRun per element over its sorted run.
func NewBinary(c *model.Collection, opts ...Option) *BinaryIndex {
	cfg := config{m: defaultBinaryM}
	for _, o := range opts {
		o(&cfg)
	}
	ix := &BinaryIndex{shared: domain.Fit(domain.Span(c), cfg.m), live: len(c.Objects)}
	b := newBulk(ix.shared, c)
	ix.hints, ix.freqs = b.hints(ix.shared), b.freqs
	return ix
}

// Insert adds one object (update path, maintaining subdivision order).
func (ix *BinaryIndex) Insert(o model.Object) {
	p := postings.Posting{ID: o.ID, Interval: o.Interval}
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		if ix.hints[e] == nil {
			ix.hints[e] = hint.New(ix.shared)
		}
		ix.hints[e].Insert(p)
		ix.freqs[e]++
	}
	ix.live++
}

// Delete tombstones the object in each of its element HINTs.
func (ix *BinaryIndex) Delete(o model.Object) {
	p := postings.Posting{ID: o.ID, Interval: o.Interval}
	found := false
	for _, e := range o.Elems {
		if int(e) >= len(ix.hints) || ix.hints[e] == nil {
			continue
		}
		if ix.hints[e].Delete(p) {
			ix.freqs[e]--
			found = true
		}
	}
	if found {
		ix.live--
	}
}

func (ix *BinaryIndex) growTo(n int) {
	for len(ix.hints) < n {
		ix.hints = append(ix.hints, nil)
		ix.freqs = append(ix.freqs, 0)
	}
}

// Len returns the number of live objects.
func (ix *BinaryIndex) Len() int { return ix.live }

// Query implements Algorithm 3.
func (ix *BinaryIndex) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return nil
	}
	var planBuf [8]model.ElemID
	plan := dict.PlanOrder(planBuf[:0], q.Elems, ix.freqs)
	first := plan[0]
	if int(first) >= len(ix.hints) || ix.hints[first] == nil {
		return nil
	}
	// Lines 1-3: the initial candidates from a plain HINT range query;
	// lines 4-29: the candidate probes (both helpers own their stage
	// spans).
	cands := seedRange(ix.hints[first], q)
	return ix.probeRest(q, plan, cands)
}

// SizeBytes sums the per-element HINT sizes.
func (ix *BinaryIndex) SizeBytes() int64 {
	var total int64
	for _, h := range ix.hints {
		if h != nil {
			total += h.SizeBytes()
		}
	}
	return total + int64(len(ix.freqs))*8
}

// entryCount sums stored entries across all postings HINTs.
func (ix *BinaryIndex) entryCount() int64 {
	var total int64
	for _, h := range ix.hints {
		if h != nil {
			total += h.EntryCount()
		}
	}
	return total
}
