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
// (division, entry) pairs, both in contiguous chunks of the entries side by
// side; Cut lays the hierarchy a sorted run describes
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

// assignChunk is the fewest objects one pass-1 chunk assigns: a build of
// fewer objects runs pass 1 on one goroutine.
const assignChunk = 1 << 12

// assignments is pass 1 of the bulk build: it runs Assign once for each of
// n intervals, iv(0) to iv(n-1), and returns the assignments ordered by
// key, entries in index order within a key. The intervals are cut into
// contiguous chunks, one per goroutine the pool lends (width), each
// assigned into its own run; the beside jobs, job(0) to job(beside-1),
// run on the same goroutines after the chunks. The radix sort then orders
// the runs' concatenation stably, so the result does not depend on how
// many chunks there were.
func assignments(dom domain.Domain, n int, iv func(i int) model.Interval, beside int, job func(i int)) []Assignment {
	chunks := width((n + assignChunk - 1) / assignChunk)
	s := newRadix(chunks, dom.M+2)
	// Each chunk's run starts in its own stretch of one arena, room for
	// two assignments per interval; a run that outgrows it moves out.
	s.spare = make([]Assignment, 2*n)
	spread(chunks+beside, func(c int) {
		if c >= chunks {
			job(c - chunks)
			return
		}
		lo, hi := c*n/chunks, (c+1)*n/chunks
		run := s.spare[2*lo : 2*lo : 2*hi]
		var obj uint32
		record := func(level int, j uint32, original, _ bool) {
			key := (uint32(1)<<uint(level) + j) << 1
			if !original {
				key |= 1
			}
			run = append(run, Assignment{key, obj})
		}
		for i := lo; i < hi; i++ {
			obj = uint32(i)
			Assign(dom, iv(i), record)
		}
		s.runs[c] = run
		s.count(c)
	})
	return s.sort()
}

// AssignObjects is pass 1 for the methods that index objects by element,
// over the objects in id order (model.Collection.IDOrder): their
// assignments ordered by key, objects in id order within a key. The
// beside jobs, job(0) to job(beside-1), run next to it on the same pool,
// and it returns when they have finished too.
func AssignObjects(dom domain.Domain, objs []model.Object, beside int, job func(i int)) []Assignment {
	return assignments(dom, len(objs), func(i int) model.Interval { return objs[i].Interval }, beside, job)
}

// radix is pass 1's sort: an LSD radix sort of the runs' concatenation by
// the low keyBits key bits, one stable counting pass per digit, so the
// cost does not depend on how many divisions are populated. Every pass
// cuts its input into stretches — the runs in the first pass, as many
// equal stretches of the last pass's output after it — and each stretch
// counts its digits into its own histogram on its own goroutine. One
// prefix sum over (digit, stretch) turns the histograms into write
// offsets, so that stretch c writes each digit's entries behind those of
// the stretches before it, and the stretches scatter side by side: the
// output is the same however many stretches there are.
type radix struct {
	runs   [][]Assignment
	counts []int        // stretch c's histogram is counts[c<<digit:][:1<<digit]
	dst    []Assignment // the pass's output
	spare  []Assignment // the next pass's output, once the runs are read
	bits   int          // key bits
	digit  int          // bits per digit: the key bits spread evenly over the passes
	shift  int          // the pass's digit
}

// digitBits is the widest digit the sort uses.
const digitBits = 11

func newRadix(stretches, keyBits int) *radix {
	passes := (keyBits + digitBits - 1) / digitBits
	digit := (keyBits + passes - 1) / passes
	return &radix{runs: make([][]Assignment, stretches), counts: make([]int, stretches<<digit), bits: keyBits, digit: digit}
}

// hist returns stretch c's histogram.
func (s *radix) hist(c int) []int {
	return s.counts[c<<s.digit : (c+1)<<s.digit]
}

// count fills stretch c's histogram of the pass's digit.
func (s *radix) count(c int) {
	cnt, shift, mask := s.hist(c), s.shift, uint32(1)<<s.digit-1
	clear(cnt)
	for _, a := range s.runs[c] {
		cnt[a.Key>>shift&mask]++
	}
}

// scatter writes stretch c to the pass's output at its offsets.
func (s *radix) scatter(c int) {
	cnt, dst, shift, mask := s.hist(c), s.dst, s.shift, uint32(1)<<s.digit-1
	for _, a := range s.runs[c] {
		d := a.Key >> shift & mask
		dst[cnt[d]] = a
		cnt[d]++
	}
}

// sort runs the passes over the counted runs and returns the sorted
// concatenation. A second pass writes into spare, the arena the runs were
// assigned into, so the sort holds two buffers, as any LSD sort must.
func (s *radix) sort() []Assignment {
	n := 0
	for _, r := range s.runs {
		n += len(r)
	}
	s.dst = make([]Assignment, n)
	w, size, scatter := len(s.runs), 1<<s.digit, s.scatter
	for {
		off := 0
		for d := 0; d < size; d++ {
			for c := 0; c < w; c++ {
				k := c*size + d
				s.counts[k], off = off, off+s.counts[k]
			}
		}
		spread(w, scatter)
		if s.shift += s.digit; s.shift >= s.bits {
			return s.dst
		}
		for _, r := range s.runs {
			if len(s.spare) < n && cap(r) >= n {
				s.spare = r[:n] // a run that outgrew the arena and holds it all
			}
		}
		if len(s.spare) < n {
			s.spare = make([]Assignment, n)
		}
		for c := range s.runs {
			s.runs[c] = s.dst[c*n/w : (c+1)*n/w]
		}
		spread(w, s.count)
		s.dst, s.spare = s.spare[:n], s.dst
	}
}

// width is how many goroutines a build fan-out of n jobs runs on: no more
// than the process-wide pool (exec.Default) lends or there are Ps, so that
// under GOMAXPROCS 1, or inside a fan-out that already holds the pool's
// tokens, the jobs run on the caller's goroutine.
func width(n int) int {
	return max(1, min(exec.Default().Workers(), runtime.GOMAXPROCS(0), n))
}

// spread runs job(i) for every i in [0, n) on width(n) goroutines of the
// process-wide pool, each taking the next job not yet taken, and returns
// when every job has finished. On one goroutine the jobs run in index
// order. Jobs must write disjoint memory.
func spread(n int, job func(i int)) {
	if w := width(n); w > 1 {
		var next atomic.Int64
		exec.Default().Map(w, func(int) {
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				job(k)
			}
		})
		return
	}
	for i := 0; i < n; i++ {
		job(i)
	}
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
	workers := width(len(order))
	if workers > 1 {
		slices.Sort(order)
	}
	var next atomic.Int64
	exec.Default().Map(workers, func(int) {
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
	run := assignments(dom, len(entries), func(i int) model.Interval { return entries[i].Interval }, 0, nil)
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
