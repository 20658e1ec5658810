package hint

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/postings"
)

// The bulk build kernel every HINT-backed method shares. Pass 1
// (assignments) runs the HINT assignment once per entry and sorts the
// (division, entry) pairs; Cut lays the hierarchy a sorted run describes
// out into exactly-sized directories, and each method fills the divisions
// from their runs — FromRun for a plain HINT, irHINT and the tIF+HINT
// variants with their own payloads. Pass 2 runs in parallel (Fan): irHINT
// fills its divisions side by side (CutFan), the tIF+HINT variants their
// elements' hierarchies.

// Assignment is one (division, entry) pair of the HINT assignment. Key
// orders divisions the way the level directories hold them: the
// partition's position in the implicit binary tree over all levels,
// (1<<level)+j, then originals before replicas. Obj indexes the caller's
// entries.
type Assignment struct{ Key, Obj uint32 }

// node returns the partition's position in the binary tree, (1<<level)+j.
func (a Assignment) node() uint32 { return a.Key >> 1 }

// Partition returns the level and index of the assignment's partition.
func (a Assignment) Partition() (level int, j uint32) {
	node := a.node()
	level = bits.Len32(node) - 1
	return level, node - uint32(1)<<uint(level)
}

// assignments is pass 1 of the bulk build: it runs Assign once for each of
// n intervals, iv(0) to iv(n-1), and returns the assignments ordered by
// key, entries in index order within a key.
func assignments(dom domain.Domain, n int, iv func(i int) model.Interval) []Assignment {
	asg := make([]Assignment, 0, 2*n)
	var obj uint32
	record := func(level int, j uint32, original, _ bool) {
		key := (uint32(1)<<uint(level) + j) << 1
		if !original {
			key |= 1
		}
		asg = append(asg, Assignment{key, obj})
	}
	for i := 0; i < n; i++ {
		obj = uint32(i)
		Assign(dom, iv(i), record)
	}
	return sortByKey(asg, dom.M+2)
}

// AssignObjects is pass 1 for the methods that index objects by element,
// over the objects in id order (model.Collection.IDOrder): their
// assignments ordered by key, objects in id order within a key.
func AssignObjects(dom domain.Domain, objs []model.Object) []Assignment {
	return assignments(dom, len(objs), func(i int) model.Interval { return objs[i].Interval })
}

// sortByKey orders a by its low keyBits key bits, entries keeping their
// order within a key: an LSD radix sort, one stable counting pass per
// digit, so the cost does not depend on how many divisions are populated.
func sortByKey(a []Assignment, keyBits int) []Assignment {
	const digitBits, mask = 11, 1<<11 - 1
	tmp := make([]Assignment, len(a))
	for shift := 0; shift < keyBits; shift += digitBits {
		var next [mask + 2]int
		for i := range a {
			next[(a[i].Key>>shift)&mask+1]++
		}
		for d := 1; d < len(next); d++ {
			next[d] += next[d-1]
		}
		for _, x := range a {
			d := (x.Key >> shift) & mask
			tmp[next[d]] = x
			next[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// Cut lays out the hierarchy of an m-bit domain that a run ordered by key
// describes. It hands dir, level by level, the populated partitions:
// their indices ascending and, parallel to them, pointers into one slab of
// exactly that many partitions. Both are views of one array for all
// levels, cut with cap == len, so a directory insert reallocates instead
// of writing into the next level. It hands div every division's partition,
// whether the division holds replicas, and the bounds [lo, hi) of the
// division's assignments in run.
func Cut[P any](m int, run []Assignment, dir func(level int, keys []uint32, parts []*P), div func(p *P, replica bool, lo, hi int)) {
	n := 0
	for i := range run {
		if i == 0 || run[i].node() != run[i-1].node() {
			n++
		}
	}
	keys, parts, slab := make([]uint32, n), make([]*P, n), make([]P, n)
	k := -1
	for lo := 0; lo < len(run); {
		key := run[lo].Key
		hi := lo + 1
		for hi < len(run) && run[hi].Key == key {
			hi++
		}
		if node := run[lo].node(); k < 0 || keys[k] != node {
			k++
			keys[k], parts[k] = node, &slab[k]
		}
		div(parts[k], key&1 == 1, lo, hi)
		lo = hi
	}
	// keys hold tree positions, ascending, so the levels follow each other.
	lo := 0
	for level := 0; level <= m; level++ {
		hi := lo
		for hi < n && bits.Len32(keys[hi])-1 == level {
			keys[hi] -= uint32(1) << uint(level)
			hi++
		}
		dir(level, keys[lo:hi:hi], parts[lo:hi:hi])
		lo = hi
	}
}

// division is one division Cut handed out: its partition and the bounds of
// its assignments in the run.
type division[P any] struct {
	p      *P
	lo, hi int
}

// CutFan is Cut with the divisions filled by Fan, the largest first: div
// gets, besides what Cut hands it, the scratch of the goroutine that fills
// the division. dir runs first, on the caller's goroutine.
func CutFan[P, S any](m int, run []Assignment, dir func(level int, keys []uint32, parts []*P), newScratch func() S, div func(s S, p *P, replica bool, lo, hi int)) {
	n := 0
	for i := range run {
		if i == 0 || run[i].Key != run[i-1].Key {
			n++
		}
	}
	divs := make([]division[P], 0, n)
	Cut(m, run, dir, func(p *P, _ bool, lo, hi int) {
		divs = append(divs, division[P]{p, lo, hi})
	})
	Fan(len(divs), func(i int) int { return divs[i].hi - divs[i].lo }, newScratch, func(s S, i int) {
		d := divs[i]
		div(s, d.p, run[d.lo].Key&1 == 1, d.lo, d.hi)
	})
}

// Fan is pass 2's schedule: it runs job(s, i) for every i in [0, n) whose
// size(i) is not zero, on the process-wide pool (exec.Default), where every
// division — or every element's hierarchy — depends on nothing but its own
// run. The largest jobs go first, so the last to finish is a small one, and
// it never runs on more goroutines than there are Ps: under GOMAXPROCS 1,
// or inside a fan-out that already holds the pool's tokens, the jobs run
// one after another on the caller's goroutine, in index order. Each
// goroutine that takes a job first makes its own scratch with newScratch
// and hands it to every job it takes. Jobs must write disjoint memory.
func Fan[S any](n int, size func(i int) int, newScratch func() S, job func(s S, i int)) {
	// A job is (MaxUint32 - size) << 32 | index: ascending order lists the
	// largest first, and the unsorted slice is in index order.
	order := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		if sz := size(i); sz > 0 {
			order = append(order, uint64(math.MaxUint32-uint32(min(sz, math.MaxUint32)))<<32|uint64(i))
		}
	}
	pool := exec.Default()
	workers := min(pool.Workers(), runtime.GOMAXPROCS(0), len(order))
	if workers > 1 {
		slices.Sort(order)
	}
	var next atomic.Int64
	pool.Map(workers, func(int) {
		var s S
		made := false
		for {
			k := int(next.Add(1)) - 1
			if k >= len(order) {
				return
			}
			if !made {
				s, made = newScratch(), true
			}
			job(s, int(uint32(order[k])))
		}
	})
}

// FromRun builds a HINT from a run of assignments ordered by key and the
// entries parallel to it: entries[i] is the entry run[i] assigns, so an
// entry appears once per division it lands in. The index keeps entries as
// its storage. Each division's stretch is split in place into the entries
// ending after the partition (O_aft, R_aft, in run order) and those ending
// inside it (O_in, R_in), and the three compared subdivisions are sorted
// into their beneficial orders, ties by id — what Insert leaves after
// inserting the entries in id order. Every subdivision is a view with
// cap == len.
func FromRun(dom domain.Domain, run []Assignment, entries []postings.Posting) *Index {
	ix := New(dom)
	Cut(dom.M, run, func(level int, keys []uint32, parts []*Partition) {
		ix.levels[level] = Directory[Partition]{Keys: keys, Parts: parts}
	}, func(p *Partition, replica bool, lo, hi int) {
		level, j := run[lo].Partition()
		div := entries[lo:hi:hi]
		w := 0
		for i := range div {
			if dom.Prefix(level, dom.Disc(div[i].Interval.End)) != j {
				div[w], div[i] = div[i], div[w]
				w++
			}
		}
		aft, in := div[:w:w], div[w:]
		if replica {
			slices.SortFunc(in, byEnd)
			p.RIn, p.RAft = in, aft
			return
		}
		slices.SortFunc(in, byStart)
		slices.SortFunc(aft, byStart)
		p.OIn, p.OAft = in, aft
		ix.live += len(div) // every entry has exactly one original
	})
	for l := range ix.levels {
		assertDirectorySorted(&ix.levels[l], "FromRun")
		for _, p := range ix.levels[l].Parts {
			assertPartitionSorted(p, "FromRun")
		}
	}
	return ix
}

// Build builds a HINT over entries, in any order, with the bulk kernel.
// Entries keep their original timestamps.
func Build(dom domain.Domain, entries []postings.Posting) *Index {
	run := assignments(dom, len(entries), func(i int) model.Interval { return entries[i].Interval })
	arena := make([]postings.Posting, len(run))
	for i, a := range run {
		arena[i] = entries[a.Obj]
	}
	return FromRun(dom, run, arena)
}

func byStart(a, b postings.Posting) int {
	return cmp.Or(cmp.Compare(a.Interval.Start, b.Interval.Start), cmp.Compare(a.ID, b.ID))
}

func byEnd(a, b postings.Posting) int {
	return cmp.Or(cmp.Compare(a.Interval.End, b.Interval.End), cmp.Compare(a.ID, b.ID))
}
