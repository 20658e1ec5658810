package core

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
)

// assignment is one (division, object) pair of the HINT assignment. key
// orders divisions the way the directories hold them: the partition's
// position in the implicit binary tree over all levels, (1<<level)+j, then
// originals before replicas. obj indexes builder.objs.
type assignment struct{ key, obj uint32 }

// builder is the state pass 2 reuses from one division to the next.
type builder struct {
	objs  []model.Object // ascending by id
	count []int          // per element, all zero between divisions
	seen  []model.ElemID // the current division's distinct elements
}

func byID(a, b model.Object) int { return cmp.Compare(a.ID, b.ID) }

// bulkBuild is the construction of Section 4.1 for a whole collection, in
// two passes instead of one Insert per object. Pass 1 runs the HINT
// assignment of every object, in id order, and groups the assignments by
// division in directory order. Pass 2 appends each populated partition to
// its level's directory — sized exactly, partitions of a level adjacent in
// memory — and hands each division's run of assignments to div, which
// fills the division through carveLists. It also returns the per-element
// object counts, grown past c.DictSize where an element id demands it.
func bulkBuild[P any](dom domain.Domain, c *model.Collection, div func(b *builder, p *P, replica bool, run []assignment)) ([]directory[P], []int) {
	objs := c.Objects
	if !slices.IsSortedFunc(objs, byID) {
		objs = slices.Clone(objs)
		slices.SortStableFunc(objs, byID)
	}
	freqs := make([]int, c.DictSize)
	asg := make([]assignment, 0, 2*len(objs))
	var obj uint32
	record := func(level int, j uint32, original, _ bool) {
		key := (uint32(1)<<uint(level) + j) << 1
		if !original {
			key |= 1
		}
		asg = append(asg, assignment{key, obj})
	}
	for i := range objs {
		obj = uint32(i)
		hint.Assign(dom, objs[i].Interval, record)
		for _, e := range objs[i].Elems {
			if int(e) >= len(freqs) {
				freqs = append(freqs, make([]int, int(e)+1-len(freqs))...)
			}
			freqs[e]++
		}
	}
	asg = sortByKey(asg, dom.M+2)

	levelOf := func(key uint32) int { return bits.Len32(key>>1) - 1 }
	parts := make([]int, dom.M+1)
	for i := range asg {
		if i == 0 || asg[i].key>>1 != asg[i-1].key>>1 {
			parts[levelOf(asg[i].key)]++
		}
	}
	levels := make([]directory[P], dom.M+1)
	slabs := make([][]P, dom.M+1)
	for l, n := range parts {
		levels[l] = directory[P]{keys: make([]uint32, 0, n), parts: make([]*P, 0, n)}
		slabs[l] = make([]P, n)
	}
	b := &builder{objs: objs, count: make([]int, len(freqs))}
	for lo := 0; lo < len(asg); {
		key := asg[lo].key
		hi := lo + 1
		for hi < len(asg) && asg[hi].key == key {
			hi++
		}
		l := levelOf(key)
		d, j := &levels[l], key>>1-uint32(1)<<uint(l)
		if n := len(d.keys); n == 0 || d.keys[n-1] != j {
			d.keys = append(d.keys, j)
			d.parts = append(d.parts, &slabs[l][n])
		}
		div(b, d.parts[len(d.parts)-1], key&1 == 1, asg[lo:hi])
		lo = hi
	}
	return levels, freqs
}

// sortByKey orders a by its low keyBits key bits, objects keeping their
// order within a key: an LSD radix sort, one stable counting pass per
// digit, so the cost does not depend on how many divisions are populated.
func sortByKey(a []assignment, keyBits int) []assignment {
	const digitBits, mask = 11, 1<<11 - 1
	tmp := make([]assignment, len(a))
	for shift := 0; shift < keyBits; shift += digitBits {
		var next [mask + 2]int
		for i := range a {
			next[(a[i].key>>shift)&mask+1]++
		}
		for d := 1; d < len(next); d++ {
			next[d] += next[d-1]
		}
		for _, x := range a {
			d := (x.key >> shift) & mask
			tmp[next[d]] = x
			next[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// carveLists builds one division's inverted file from its run of assignments:
// the sorted element directory and, parallel to it, one list per element
// holding entry(o) for every object o of the run that carries the element,
// in id order. All lists are carved from a single arena of exactly the
// division's entry count; each is cut with cap == len, so an index-level
// Insert that appends to one reallocates it instead of writing into its
// neighbour.
func carveLists[T any](b *builder, run []assignment, entry func(o *model.Object) T) ([]model.ElemID, [][]T) {
	b.seen = b.seen[:0]
	total := 0
	for _, a := range run {
		elems := b.objs[a.obj].Elems
		for _, e := range elems {
			if b.count[e] == 0 {
				b.seen = append(b.seen, e)
			}
			b.count[e]++
		}
		total += len(elems)
	}
	slices.Sort(b.seen)
	elems := make([]model.ElemID, len(b.seen))
	copy(elems, b.seen)
	// Turn each count into the element's write cursor in the arena.
	off := 0
	for _, e := range elems {
		off, b.count[e] = off+b.count[e], off
	}
	arena := make([]T, total)
	for _, a := range run {
		o := &b.objs[a.obj]
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
