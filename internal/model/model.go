// Package model defines the data model shared by every index in the
// repository: time intervals, data objects with descriptive elements, and
// time-travel IR queries, following Section 2.1 of Rauch & Bouros,
// "Fast Indexing for Temporal Information Retrieval".
package model

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Timestamp is a point in the (discrete) time domain. The unit is
// application-defined: seconds for the real-dataset stand-ins, abstract
// units for synthetic data.
type Timestamp = int64

// ObjectID identifies a data object in a collection. IDs are dense and
// assigned in insertion order, which lets indices keep postings implicitly
// sorted as objects arrive (Section 5.5 of the paper relies on this).
type ObjectID uint32

// ElemID identifies a descriptive element (e.g. a term) in the global
// dictionary.
type ElemID uint32

// Interval is a closed time interval [Start, End] with Start <= End.
// It contains every time point t with Start <= t <= End.
type Interval struct {
	Start Timestamp
	End   Timestamp
}

// NewInterval returns the interval [start, end]. It panics if start > end;
// use Canon to silently swap instead.
func NewInterval(start, end Timestamp) Interval {
	if start > end {
		panicInvalidInterval(start, end)
	}
	return Interval{Start: start, End: end}
}

// panicInvalidInterval formats the constructor-precondition panic outside
// NewInterval, which is inlined into query kernels. Noinline because the
// compiler would otherwise inline it back, and the Sprintf call pushes
// NewInterval past the inliner's budget.
//
//go:noinline
func panicInvalidInterval(start, end Timestamp) {
	// documented constructor precondition; use Canon for untrusted endpoints
	panic(fmt.Sprintf("model: invalid interval [%d, %d]", start, end))
}

// Canon returns the interval with endpoints swapped if necessary so that
// Start <= End holds.
func Canon(a, b Timestamp) Interval {
	if a > b {
		a, b = b, a
	}
	return Interval{Start: a, End: b}
}

// Valid reports whether Start <= End.
func (iv Interval) Valid() bool { return iv.Start <= iv.End }

// Duration returns the number of time points covered by the interval.
func (iv Interval) Duration() int64 { return int64(iv.End-iv.Start) + 1 }

// Contains reports whether the time point t lies inside the interval.
func (iv Interval) Contains(t Timestamp) bool { return iv.Start <= t && t <= iv.End }

// Overlaps reports whether two closed intervals share at least one time
// point (the Overlap predicate of Definition 2.1).
func (iv Interval) Overlaps(other Interval) bool {
	return other.Start <= iv.End && iv.Start <= other.End
}

// Intersect returns the common sub-interval of iv and other and whether it
// is non-empty.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	st := iv.Start
	if other.Start > st {
		st = other.Start
	}
	en := iv.End
	if other.End < en {
		en = other.End
	}
	if st > en {
		return Interval{}, false
	}
	return Interval{Start: st, End: en}, true
}

// Union returns the smallest interval covering both iv and other.
func (iv Interval) Union(other Interval) Interval {
	st := iv.Start
	if other.Start < st {
		st = other.Start
	}
	en := iv.End
	if other.End > en {
		en = other.End
	}
	return Interval{Start: st, End: en}
}

// String renders the interval as "[Start, End]".
func (iv Interval) String() string { return fmt.Sprintf("[%d, %d]", iv.Start, iv.End) }

// Object is a data object: an identifier, a lifespan interval and a set of
// descriptive elements (the <id, [t_st, t_end], d> triple of the paper).
// Elements is a set: sorted ascending with no duplicates. Use NormalizeElems
// to establish that invariant on raw input.
type Object struct {
	ID       ObjectID
	Interval Interval
	Elems    []ElemID
}

// HasElem reports whether the object's description contains e, using binary
// search over the sorted Elems slice.
func (o *Object) HasElem(e ElemID) bool {
	i := sort.Search(len(o.Elems), func(i int) bool { return o.Elems[i] >= e })
	return i < len(o.Elems) && o.Elems[i] == e
}

// ContainsAll reports whether the object's description is a superset of the
// sorted element set q.
func (o *Object) ContainsAll(q []ElemID) bool {
	d := o.Elems
	for _, e := range q {
		i := sort.Search(len(d), func(i int) bool { return d[i] >= e })
		if i == len(d) || d[i] != e {
			return false
		}
		d = d[i+1:]
	}
	return true
}

// NormalizeElems sorts the slice in place and removes duplicates, returning
// the (possibly shorter) normalized slice.
func NormalizeElems(elems []ElemID) []ElemID {
	if len(elems) < 2 {
		return elems
	}
	slices.Sort(elems)
	w := 1
	for i := 1; i < len(elems); i++ {
		if elems[i] != elems[w-1] {
			elems[w] = elems[i]
			w++
		}
	}
	return elems[:w]
}

// Query is a time-travel IR query: an interval of interest plus a set of
// required elements. An object matches iff its interval overlaps the query
// interval and its description contains every element in Elems
// (Definition 2.1).
type Query struct {
	Interval Interval
	Elems    []ElemID
	// Trace, when non-nil, receives per-stage spans as the query is
	// evaluated. The nil zero value is the disabled recorder: every
	// obs.Trace method is a nil-receiver no-op, so un-traced queries
	// pay one branch per stage boundary. Trace does not affect the
	// query's semantics — results are identical with or without it.
	Trace *obs.Trace
}

// Matches reports whether object o is an answer to query q.
func (q *Query) Matches(o *Object) bool {
	return q.Interval.Overlaps(o.Interval) && o.ContainsAll(q.Elems)
}

// Querier answers the time-travel IR query: the ids of q's matches, in
// no particular order (SortIDs gives the canonical one). Every index of
// the family and the brute-force oracle implement it; ranking and
// aggregation draw their candidates from it. An index answers a query
// without elements with nil; maint.Generation.Query scans for it.
type Querier interface {
	Query(q Query) []ObjectID
}

// Index is the contract of every index in the family: a Querier that
// also takes updates, and answers an element-free query with nil.
// Insert adds an object with a fresh id; Delete tombstones an object
// given its full record (indices locate entries by interval and id, as
// the paper's logical-deletion scheme does).
type Index interface {
	Querier
	Insert(o Object)
	Delete(o Object)
	Len() int
	SizeBytes() int64
}

// Collection is an ordered set of objects over a shared dictionary. Object
// IDs equal their position in Objects; AppendObject maintains that.
type Collection struct {
	Objects []Object
	// DictSize is the number of distinct element ids in use
	// (ids are drawn from [0, DictSize)).
	DictSize int
}

// AppendObject adds an object to the collection, assigning the next dense
// ObjectID, normalizing its element set and growing DictSize as needed.
// It returns the assigned id.
func (c *Collection) AppendObject(iv Interval, elems []ElemID) ObjectID {
	id := ObjectID(len(c.Objects))
	elems = NormalizeElems(elems)
	for _, e := range elems {
		if int(e) >= c.DictSize {
			c.DictSize = int(e) + 1
		}
	}
	c.Objects = append(c.Objects, Object{ID: id, Interval: iv, Elems: elems})
	return id
}

// Len returns the number of objects in the collection.
func (c *Collection) Len() int { return len(c.Objects) }

// Span returns the smallest interval covering every object lifespan, or
// false when the collection is empty.
func (c *Collection) Span() (Interval, bool) {
	if len(c.Objects) == 0 {
		return Interval{}, false
	}
	span := c.Objects[0].Interval
	for _, o := range c.Objects[1:] {
		span = span.Union(o.Interval)
	}
	return span, true
}

// ElemFreqs returns the number of objects containing each element,
// indexed by ElemID.
func (c *Collection) ElemFreqs() []int {
	freqs := make([]int, c.DictSize)
	for i := range c.Objects {
		for _, e := range c.Objects[i].Elems {
			freqs[e]++
		}
	}
	return freqs
}

// CountElems returns the number of objects of objs carrying each element,
// indexed by ElemID: n counters, grown where an element id demands more.
func CountElems(objs []Object, n int) []int {
	freqs := make([]int, n)
	for i := range objs {
		for _, e := range objs[i].Elems {
			if int(e) >= len(freqs) {
				freqs = append(freqs, make([]int, int(e)+1-len(freqs))...)
			}
			freqs[e]++
		}
	}
	return freqs
}

// IDOrder is the first step of every bulk build: the objects ascending by
// id — c.Objects itself when they already are, a sorted copy otherwise —
// and their CountElems over c.DictSize. Lists filled in this order are
// born id-sorted.
func (c *Collection) IDOrder() (objs []Object, freqs []int) {
	objs = c.Objects
	byID := func(a, b Object) int { return cmp.Compare(a.ID, b.ID) }
	if !slices.IsSortedFunc(objs, byID) {
		objs = slices.Clone(objs)
		slices.SortStableFunc(objs, byID)
	}
	return objs, CountElems(objs, c.DictSize)
}

// sortCutoff is the length below which SortIDs hands ids to slices.Sort:
// under it, clearing and summing the radix counters costs more than the
// comparisons save (BenchmarkSortIDs).
const sortCutoff = 256

// radixBits is the widest radix digit SortIDs uses. Internal ids are
// dense, so the 17 bits of a 100 k corpus take two 9-bit passes, and
// even a full 32-bit key takes three.
const radixBits = 11

// sortScratch is one radix sort's working memory: the ping-pong buffer
// and a counter table per pass. It is pooled, so a steady-state sort
// allocates nothing.
type sortScratch struct {
	buf   []ObjectID
	count [3][1 << radixBits]uint32
}

var sortPool = sync.Pool{New: func() any { return new(sortScratch) }}

// SortIDs sorts a slice of object ids ascending in place, without
// allocating in the steady state. Below sortCutoff ids it is slices.Sort.
// Above it, one pass finds whether ids are already sorted — the answer of
// every method whose lists are id-ordered — and their largest value;
// unsorted ids then get an LSD radix sort over only the bits the largest
// needs, in as few passes as radixBits allows.
func SortIDs(ids []ObjectID) {
	if len(ids) < sortCutoff {
		slices.Sort(ids)
		return
	}
	i := 1
	for i < len(ids) && ids[i-1] <= ids[i] {
		i++
	}
	if i == len(ids) {
		return
	}
	hi := ids[i-1] // the sorted prefix's largest
	for _, id := range ids[i:] {
		hi = max(hi, id)
	}
	radixSort(ids, hi)
}

// radixSort sorts ids, none above hi, by an LSD radix sort: one read
// counts every digit, then each digit that is not the same for all ids
// scatters the ids stably into the other buffer.
func radixSort(ids []ObjectID, hi ObjectID) {
	keyBits := bits.Len32(uint32(hi))
	passes := (keyBits + radixBits - 1) / radixBits
	width := (keyBits + passes - 1) / passes
	mask := uint32(1)<<width - 1

	s := sortPool.Get().(*sortScratch)
	if cap(s.buf) < len(ids) {
		s.buf = make([]ObjectID, len(ids))
	}
	counts := s.count[:passes]
	for p := range counts {
		clear(counts[p][:mask+1])
	}
	const top = 1<<radixBits - 1 // proves every digit in range for the compiler
	c0, c1, c2 := &s.count[0], &s.count[1], &s.count[2]
	switch passes {
	case 1:
		for _, id := range ids {
			c0[uint32(id)&mask&top]++
		}
	case 2:
		for _, id := range ids {
			k := uint32(id)
			c0[k&mask&top]++
			c1[k>>width&mask&top]++
		}
	default:
		for _, id := range ids {
			k := uint32(id)
			c0[k&mask&top]++
			c1[k>>width&mask&top]++
			c2[k>>(2*width)&mask&top]++
		}
	}

	src, dst := ids, s.buf[:len(ids)]
	for p := range counts {
		c := &counts[p]
		if int(c[uint32(src[0])>>(p*width)&mask]) == len(ids) {
			continue // every id has this digit: the pass would copy
		}
		sum := uint32(0)
		for d, n := range c[:mask+1] {
			c[d] = sum
			sum += n
		}
		shift := p * width
		for _, id := range src {
			d := uint32(id) >> shift & mask & top
			dst[c[d]] = id
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
	sortPool.Put(s)
}

// DedupIDs removes duplicates from a sorted id slice, in place.
func DedupIDs(ids []ObjectID) []ObjectID {
	if len(ids) < 2 {
		return ids
	}
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// EqualIDs reports whether two id slices are element-wise equal.
func EqualIDs(a, b []ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
