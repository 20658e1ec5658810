package compress

import (
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/model"
	"repro/internal/postings"
)

// TIF is a static, compressed temporal inverted file: the Algorithm 1
// query plan over gap-encoded postings. It trades update support and some
// throughput for a fraction of the footprint — the compression ablation.
type TIF struct {
	lists  [][]byte
	counts []int
	freqs  []int
	live   int
}

// NewTIF builds the compressed index from a collection.
func NewTIF(c *model.Collection) *TIF {
	plain := make([][]postings.Posting, c.DictSize)
	for i := range c.Objects {
		o := &c.Objects[i]
		for _, e := range o.Elems {
			plain[e] = append(plain[e], postings.Posting{ID: o.ID, Interval: o.Interval})
		}
	}
	ix := &TIF{
		lists:  make([][]byte, c.DictSize),
		counts: make([]int, c.DictSize),
		freqs:  make([]int, c.DictSize),
		live:   c.Len(),
	}
	for e := range plain {
		if len(plain[e]) == 0 {
			continue
		}
		sort.Slice(plain[e], func(a, b int) bool { return plain[e][a].ID < plain[e][b].ID })
		ix.lists[e] = EncodeList(plain[e])
		ix.counts[e] = len(plain[e])
		ix.freqs[e] = len(plain[e])
	}
	return ix
}

// Len returns the number of indexed objects.
func (ix *TIF) Len() int { return ix.live }

// Query runs Algorithm 1 with on-the-fly decoding: temporal filter over
// the least frequent element's stream, then streaming merge intersections.
// The iterator is a stack value (no per-query allocation) and the
// candidate buffer is pre-sized to the first list's entry count, so the
// decode loops never reallocate.
func (ix *TIF) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return ix.queryTemporalOnly(q.Interval)
	}
	plan := dict.PlanOrder(q.Elems, ix.freqs)
	first := plan[0]
	if int(first) >= len(ix.lists) || ix.lists[first] == nil {
		return nil
	}
	cands := make([]model.ObjectID, 0, ix.counts[first])
	it := Iterator{buf: ix.lists[first]}
	var p postings.Posting
	for it.Next(&p) {
		if p.Interval.Overlaps(q.Interval) {
			cands = append(cands, p.ID)
		}
	}
	bs := postings.GetBitmapScratch()
	defer postings.PutBitmapScratch(bs)
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		if int(e) >= len(ix.lists) || ix.lists[e] == nil {
			return nil
		}
		it = Iterator{buf: ix.lists[e]}
		// Dense candidate sets copy into a bitmap container: the decode
		// stream then tests membership with one word probe per entry,
		// instead of the in-place merge re-walking the candidate slice.
		// Encoded lists are id-sorted, so streaming appends stay sorted.
		if len(cands) >= postings.BitmapCutoff {
			bs.Cands.SetSorted(cands)
			w := 0
			for it.Next(&p) {
				if bs.Cands.Contains(p.ID) {
					cands[w] = p.ID
					w++
				}
			}
			cands = cands[:w]
			continue
		}
		w := 0
		i := 0
		for it.Next(&p) && i < len(cands) {
			for i < len(cands) && cands[i] < p.ID {
				i++
			}
			if i < len(cands) && cands[i] == p.ID {
				cands[w] = cands[i]
				w++
				i++
			}
		}
		cands = cands[:w]
	}
	return cands
}

func (ix *TIF) queryTemporalOnly(q model.Interval) []model.ObjectID {
	var out []model.ObjectID
	var p postings.Posting
	for e := range ix.lists {
		if ix.lists[e] == nil {
			continue
		}
		// Establish capacity for this list's matches before the decode
		// loop; growth amortizes to one allocation per non-empty list.
		out = slices.Grow(out, ix.counts[e])
		it := Iterator{buf: ix.lists[e]}
		for it.Next(&p) {
			if p.Interval.Overlaps(q) {
				out = append(out, p.ID)
			}
		}
	}
	model.SortIDs(out)
	return model.DedupIDs(out)
}

// SizeBytes is the compressed footprint: encoded bytes plus slice
// headers, the per-element counts and the plan-order frequencies.
func (ix *TIF) SizeBytes() int64 {
	var total int64
	for e := range ix.lists {
		total += int64(cap(ix.lists[e])) + 24
	}
	return total + int64(len(ix.counts))*8 + int64(len(ix.freqs))*8
}
