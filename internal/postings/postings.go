// Package postings provides the shared postings-list machinery of the
// IR-first indices: time-aware postings entries, id-sorted list operations
// (merge and binary-search intersections), and the reference-value
// de-duplication technique of Dittrich & Seeger that the paper uses for all
// sliced structures.
package postings

import (
	"math"
	"slices"
	"sort"

	"repro/internal/model"
)

// Tombstone is the sentinel interval that marks a logically deleted entry
// (Section 5.5: deletions are logical, entries are located and flagged).
// The sentinel overlaps no real interval, so every comparison-based path
// skips it for free; bulk "no comparison" paths that emit candidates
// must test IsTombstone. Later elements need not (Later): Delete flags
// every copy, so no live candidate's id meets a flagged one.
// The sentinel violates Start <= End on purpose, so it overlaps no real
// interval.
var Tombstone = model.Interval{Start: math.MaxInt64, End: math.MinInt64}

// IsTombstone reports whether an interval is the deletion sentinel.
func IsTombstone(iv model.Interval) bool {
	return iv.Start == math.MaxInt64 && iv.End == math.MinInt64
}

// deadBit flags a logically deleted entry in structures sorted by time,
// where rewriting the interval (as the Tombstone sentinel does) would break
// the sort order. Object ids must stay below 2^31.
const deadBit model.ObjectID = 1 << 31

// MarkDead sets the dead bit on an id.
func MarkDead(id model.ObjectID) model.ObjectID { return id | deadBit }

// IsDead reports whether the dead bit is set.
func IsDead(id model.ObjectID) bool { return id&deadBit != 0 }

// LiveID strips the dead bit.
func LiveID(id model.ObjectID) model.ObjectID { return id &^ deadBit }

// Posting is one entry of a time-aware postings list: the object id plus
// its lifespan (the <o.id, [o.t_st, o.t_end]> pair of Section 2.2).
type Posting struct {
	ID       model.ObjectID
	Interval model.Interval
}

// List is a postings list ordered by ascending object id, the standard IR
// layout enabling merge intersections.
type List []Posting

// Clone returns an independent copy of the list. Lists handed out by
// index accessors alias shared storage and are read-only; Clone is the
// sanctioned way to obtain a mutable copy.
func (l List) Clone() List {
	if l == nil {
		return nil
	}
	out := make(List, len(l))
	copy(out, l)
	return out
}

// Sort re-establishes the id order after bulk loading.
func (l List) Sort() {
	sort.Slice(l, func(i, j int) bool { return l[i].ID < l[j].ID })
	assertSorted(l, "List.Sort")
}

// isSorted reports whether the list is in ascending id order.
func (l List) isSorted() bool {
	return sort.SliceIsSorted(l, func(i, j int) bool { return l[i].ID < l[j].ID })
}

// FindID returns the position of id in the list and whether it is present.
func (l List) FindID(id model.ObjectID) (int, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].ID >= id })
	return i, i < len(l) && l[i].ID == id
}

// InsertByID inserts x into s, ascending by id, and returns s: an append
// when x's id is the largest, as dense ids arriving in order make it,
// else a positioned insert.
func InsertByID[E Entry](s []E, x E) []E {
	if n := len(s); n == 0 || idOf(&s[n-1]) < idOf(&x) {
		return append(s, x)
	}
	return slices.Insert(s, gallopLowerBound(s, idOf(&x)+1, 0), x)
}

// TemporalFilter appends to dst the ids of entries whose interval overlaps
// q, preserving id order, and returns dst. This is the Lines 4-6 filter of
// Algorithm 1. It keeps its branch: most entries of a list fail the
// check, so the branch rarely mispredicts, and a branch-free loop that
// pre-grew dst by len(l) measured no faster while allocating 3.5x the
// bytes per tIF query (EXPERIMENTS.md).
func (l List) TemporalFilter(q model.Interval, dst []model.ObjectID) []model.ObjectID {
	for i := range l {
		if l[i].Interval.Overlaps(q) {
			dst = append(dst, l[i].ID)
		}
	}
	return dst
}

// intersectIDs merges a sorted candidate id slice with the list, returning
// the ids present in both (ascending). This is the merge-sort intersection
// of Algorithm 1 Line 8. dst is pre-grown to the output bound
// min(|cands|, |l|) so the merge loop never reallocates, even from a nil
// dst; callers reusing a buffer across queries amortize the growth to zero.
func (l List) intersectIDs(cands []model.ObjectID, dst []model.ObjectID) []model.ObjectID {
	assertSorted(cands, "List.intersectIDs candidates")
	assertSorted(l, "List.intersectIDs list")
	dst = slices.Grow(dst, min(len(cands), len(l)))
	i, j := 0, 0
	for i < len(cands) && j < len(l) {
		switch {
		case cands[i] < l[j].ID:
			i++
		case cands[i] > l[j].ID:
			j++
		default:
			dst = append(dst, cands[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectSortedIDs merge-intersects two ascending id slices. dst is
// pre-grown to the output bound min(|a|, |b|) so the merge loop never
// reallocates.
func IntersectSortedIDs(a, b, dst []model.ObjectID) []model.ObjectID {
	assertSorted(a, "IntersectSortedIDs a")
	assertSorted(b, "IntersectSortedIDs b")
	dst = slices.Grow(dst, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// RefValue returns the reference time point of an object replicated across
// slices: max(o.t_st, q.t_st). Under the reference-value method [25] the
// object is reported only from the slice containing this point, which both
// interval (the object's, clipped to the query) spans, guaranteeing exactly
// one report without hashing.
func RefValue(objStart, queryStart model.Timestamp) model.Timestamp {
	if objStart > queryStart {
		return objStart
	}
	return queryStart
}
