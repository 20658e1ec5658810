package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
)

// builder is one pass-2 goroutine's scratch, reused from one division to
// the next.
type builder struct {
	objs  []model.Object // ascending by id, shared read-only
	count []int          // per element, all zero between divisions
	seen  elemSet        // the current division's distinct elements
}

// newBuilder is irHINT-size's pass-2 scratch over objs and elems elements.
func newBuilder(_ *domain.Domain, objs []model.Object, elems int) *builder {
	return &builder{objs: objs, count: make([]int, elems), seen: newElemSet(elems)}
}

// perfBuilder is irHINT-perf's pass-2 scratch: a builder whose counts are
// per-element pairs of 32-bit counters in one word (divIF.fill), and the
// domain the divisions' partitions lie on.
type perfBuilder struct {
	builder
	dom domain.Domain
	cur []uint64 // per element, all zero between divisions
}

func newPerfBuilder(dom *domain.Domain, objs []model.Object, elems int) *perfBuilder {
	return &perfBuilder{builder: builder{objs: objs, seen: newElemSet(elems)}, dom: *dom, cur: make([]uint64, elems)}
}

// elemSet gathers a division's distinct elements as its counting pass
// meets them, and hands them out ascending as the division's element
// directory. Each element is kept twice: in the order met, and as a bit of
// a set over the element ids [0, elems).
type elemSet struct {
	met    []model.ElemID
	bits   []uint64
	lo, hi model.ElemID // the least and the largest met; lo > hi when none
}

func newElemSet(elems int) elemSet {
	return elemSet{bits: make([]uint64, (elems+63)/64), lo: math.MaxUint32}
}

// add records e, which the set does not hold.
func (s *elemSet) add(e model.ElemID) {
	s.met = append(s.met, e)
	s.bits[e>>6] |= 1 << (e & 63)
	s.lo, s.hi = min(s.lo, e), max(s.hi, e)
}

// scanPerSort weighs one bitset word read against one comparison's share
// of a sort: a set of k elements whose bits span fewer than
// scanPerSort·k·(⌊log2 k⌋+1) words is read off the bitset, a sparser one
// sorted. BenchmarkElemSet puts the break-even at 0.9–1.5 for k from 8 to
// 512 on a 2-vCPU Xeon; 1 takes its low end.
const scanPerSort = 1

// sorted returns the elements ascending, in an exactly-sized slice, and
// empties the set: read off the bitset (scan), unless the count rule above
// finds the comparison sort of the k elements met cheaper.
func (s *elemSet) sorted() []model.ElemID {
	out := make([]model.ElemID, len(s.met))
	if k := len(s.met); k > 0 && int(s.hi>>6-s.lo>>6) < scanPerSort*k*bits.Len(uint(k)) {
		s.scan(out)
	} else {
		s.sort(out)
	}
	s.met, s.lo, s.hi = s.met[:0], math.MaxUint32, 0
	return out
}

// scan writes the set bits ascending to out, reading and clearing the
// words from lo's to hi's.
func (s *elemSet) scan(out []model.ElemID) {
	lo := int(s.lo >> 6)
	words, n := s.bits[lo:s.hi>>6+1], 0
	for i, x := range words {
		for ; x != 0; x &= x - 1 {
			out[n] = model.ElemID((lo+i)<<6 + bits.TrailingZeros64(x))
			n++
		}
	}
	clear(words)
}

// sort writes the elements met to out and sorts them there, then clears
// their words.
func (s *elemSet) sort(out []model.ElemID) {
	copy(out, s.met)
	slices.Sort(out)
	for _, e := range s.met {
		s.bits[e>>6] = 0
	}
}

// object returns the interval of object id, as an invariant check's
// home.obj: every object of the build is known and live.
func (b *perfBuilder) object(id model.ObjectID) (model.Interval, bool, bool) {
	i, ok := slices.BinarySearchFunc(b.objs, id, func(o model.Object, id model.ObjectID) int { return cmp.Compare(o.ID, id) })
	if !ok {
		return model.Interval{}, false, false
	}
	return b.objs[i].Interval, true, true
}

// bulkBuild is the construction of Section 4.1 for a whole collection, in
// two passes instead of one Insert per object, over objs, the objects in
// id order, and freqs, their per-element counts (prefix). Pass 1
// (hint.AssignObjects) runs the HINT assignment of every object and
// groups the assignments by division in directory order, in chunks of the
// objects side by side on the process-wide pool (exec.Default); the jobs
// that beside (if not nil) returns, given objs and freqs, run on the same
// goroutines. Pass 2 (hint.CutFan) lays the populated partitions out in
// exactly-sized directories and hands each division's run of assignments
// to div, which owns that stretch of the run (it may overwrite it) and
// fills the division from its builder's cursors — the divisions in
// parallel, each goroutine with its own builder from newBuilder. dom
// points at the index's own domain, so that the closures handed to the
// pool carry a pointer, not a copy.
func bulkBuild[P, B any](dom *domain.Domain, objs []model.Object, freqs []int, beside func(objs []model.Object, freqs []int) (jobs int, job func(i int)), newBuilder func(dom *domain.Domain, objs []model.Object, elems int) B, div func(b B, p *P, replica bool, asgs []hint.Assignment)) []hint.Directory[P] {
	var n int
	var job func(i int)
	if beside != nil {
		n, job = beside(objs, freqs)
	}
	asg := hint.AssignObjects(*dom, objs, n, job)
	levels, elems := make([]hint.Directory[P], dom.M+1), len(freqs)
	hint.CutFan(dom.M, asg, func(level int, keys []uint32, parts []*P) {
		levels[level] = hint.Directory[P]{Keys: keys, Parts: parts}
	}, func() B {
		return newBuilder(dom, objs, elems)
	}, func(b B, p *P, replica bool, lo, hi int) {
		div(b, p, replica, asg[lo:hi])
	})
	return levels
}

// cursors sets every element's write cursor into a division's arena in
// element order, and returns the sorted element directory and entry count.
func (b *builder) cursors(asgs []hint.Assignment) ([]model.ElemID, int) {
	total := 0
	for _, a := range asgs {
		elems := b.objs[a.Obj].Elems
		for _, e := range elems {
			if b.count[e] == 0 {
				b.seen.add(e)
			}
			b.count[e]++
		}
		total += len(elems)
	}
	elems := b.seen.sorted()
	off := 0
	for _, e := range elems {
		off, b.count[e] = off+b.count[e], off
	}
	return elems, total
}

// carveLists builds one division's inverted file from its run of assignments:
// the sorted element directory and, parallel to it, one list per element
// holding entry(o) for every object o of the run that carries the element,
// in id order. All lists are carved from a single arena of exactly the
// division's entry count; each is cut with cap == len, so an index-level
// Insert that appends to one reallocates it instead of writing into its
// neighbour.
func carveLists[T any](b *builder, asgs []hint.Assignment, entry func(o *model.Object) T) ([]model.ElemID, [][]T) {
	elems, total := b.cursors(asgs)
	arena := make([]T, total)
	for _, a := range asgs {
		o := &b.objs[a.Obj]
		x := entry(o)
		for _, e := range o.Elems {
			arena[b.count[e]] = x
			b.count[e]++
		}
	}
	// Every cursor now stands at its list's end, the next list's start.
	out := make([][]T, len(elems))
	start := 0
	for i, e := range elems {
		end := b.count[e]
		out[i] = arena[start:end:end]
		start, b.count[e] = end, 0
	}
	return elems, out
}
