package core

import (
	"sort"

	"repro/internal/model"
	"repro/internal/postings"
)

// divIF is the per-division temporal inverted file of the performance
// variant (Table 2: the I^O / I^R indices): a sorted element directory
// with parallel id-sorted postings lists. In a bulk-built division the
// lists are adjacent views into one arena, each with cap == len
// (carveLists); a list that insert has grown owns its storage.
type divIF struct {
	elems []model.ElemID
	lists [][]postings.Posting
}

// findElem locates e in the sorted element directory: a linear scan for
// the short directories that dominate deep hierarchy levels, binary search
// otherwise. Profiling shows the sort.Search closure here dominates
// Algorithm 5's query cost, hence the manual loops.
func findElem(elems []model.ElemID, e model.ElemID) (int, bool) {
	if len(elems) <= 8 {
		for i, have := range elems {
			if have >= e {
				return i, have == e
			}
		}
		return len(elems), false
	}
	lo, hi := 0, len(elems)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if elems[mid] < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(elems) && elems[lo] == e
}

// list returns the postings list for element e, or nil.
func (d *divIF) list(e model.ElemID) []postings.Posting {
	if i, ok := findElem(d.elems, e); ok {
		return d.lists[i]
	}
	return nil
}

// insert appends the posting to element e's list, creating it if needed.
// Ids arriving in increasing order keep lists sorted; out-of-order ids use
// a positioned insert.
func (d *divIF) insert(e model.ElemID, p postings.Posting) {
	i, found := findElem(d.elems, e)
	if !found {
		d.elems = append(d.elems, 0)
		d.lists = append(d.lists, nil)
		copy(d.elems[i+1:], d.elems[i:])
		copy(d.lists[i+1:], d.lists[i:])
		d.elems[i] = e
		d.lists[i] = nil
	}
	l := d.lists[i]
	if n := len(l); n == 0 || l[n-1].ID < p.ID {
		d.lists[i] = append(l, p)
		return
	}
	k := sort.Search(len(l), func(k int) bool { return l[k].ID > p.ID })
	l = append(l, postings.Posting{})
	copy(l[k+1:], l[k:])
	l[k] = p
	d.lists[i] = l
}

// kill tombstones object id in element e's list; reports whether a live
// entry was found.
func (d *divIF) kill(e model.ElemID, id model.ObjectID) bool {
	i, found := findElem(d.elems, e)
	if !found {
		return false
	}
	l := d.lists[i]
	k := sort.Search(len(l), func(k int) bool { return l[k].ID >= id })
	if k < len(l) && l[k].ID == id && !postings.IsTombstone(l[k].Interval) {
		l[k].Interval = postings.Tombstone
		return true
	}
	return false
}

// query runs the reduced time-travel IR query of Algorithm 5 on this
// division: Algorithm 1 with the temporal predicate trimmed to the checks
// the division's obligations require. The plan is pre-ordered by global
// frequency; results append to dst in id order per division. scratch is a
// reusable candidate buffer (grown as needed and returned) so that
// traversals over many small divisions do not allocate per division.
func (d *divIF) query(q model.Query, plan []model.ElemID, checkStart, checkEnd bool, scratch, dst []model.ObjectID) ([]model.ObjectID, []model.ObjectID) {
	first := d.list(plan[0])
	if first == nil {
		return scratch, dst
	}
	cands := scratch[:0]
	for i := range first {
		p := &first[i]
		if postings.IsTombstone(p.Interval) {
			continue
		}
		if checkStart && p.Interval.End < q.Interval.Start {
			continue
		}
		if checkEnd && p.Interval.Start > q.Interval.End {
			continue
		}
		cands = append(cands, p.ID)
	}
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return cands, dst
		}
		l := d.list(e)
		if l == nil {
			return cands, dst
		}
		cands = postings.List(l).IntersectAny(cands, cands[:0])
	}
	return cands, append(dst, cands...)
}

// allIDs appends the live ids passing the temporal checks across every
// list, deduplicated within the division (element-less query support).
func (d *divIF) allIDs(q model.Interval, checkStart, checkEnd bool, dst []model.ObjectID) []model.ObjectID {
	start := len(dst)
	for i := range d.lists {
		for k := range d.lists[i] {
			p := &d.lists[i][k]
			if postings.IsTombstone(p.Interval) {
				continue
			}
			if checkStart && p.Interval.End < q.Start {
				continue
			}
			if checkEnd && p.Interval.Start > q.End {
				continue
			}
			dst = append(dst, p.ID)
		}
	}
	tail := dst[start:]
	model.SortIDs(tail)
	return append(dst[:start], model.DedupIDs(tail)...)
}

// entryCount counts stored postings entries (including tombstones).
func (d *divIF) entryCount() int64 {
	var n int64
	for i := range d.lists {
		n += int64(len(d.lists[i]))
	}
	return n
}

// sizeBytes estimates resident bytes: 16-byte postings, 4-byte element
// keys, slice headers.
func (d *divIF) sizeBytes() int64 {
	total := int64(cap(d.elems))*4 + int64(cap(d.lists))*24
	for i := range d.lists {
		total += int64(cap(d.lists[i])) * 16
	}
	return total
}
