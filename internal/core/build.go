package core

import (
	"slices"

	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/hint"
	"repro/internal/model"
)

// builder is one pass-2 goroutine's scratch, reused from one division to
// the next.
type builder struct {
	objs  []model.Object // ascending by id, shared read-only
	count []int          // per element, all zero between divisions
	seen  []model.ElemID // the current division's distinct elements
}

// bulkBuild is the construction of Section 4.1 for a whole collection, in
// two passes instead of one Insert per object. Pass 1 (hint.AssignObjects)
// runs the HINT assignment of every object, in id order, and groups the
// assignments by division in directory order. Pass 1 is serial, so the
// jobs that beside (if not nil) returns, given the objects in id order and
// the per-element object counts, run next to it on the process-wide pool
// (exec.Default), and whichever goroutine ends pass 1 joins them. Pass 2
// (hint.CutFan) lays the populated partitions out in exactly-sized
// directories and hands each division's run of assignments to div, which
// fills the division from its builder's cursors — the divisions in
// parallel, each goroutine with its own builder. It also returns the
// per-element object counts.
func bulkBuild[P any](dom domain.Domain, c *model.Collection, beside func(objs []model.Object, freqs []int) (jobs int, job func(i int)), div func(b *builder, p *P, replica bool, asgs []hint.Assignment)) ([]hint.Directory[P], []int) {
	objs, freqs := c.IDOrder()
	var asg []hint.Assignment
	if beside == nil {
		asg = hint.AssignObjects(dom, objs)
	} else {
		n, job := beside(objs, freqs)
		var run []hint.Assignment
		exec.Default().Map(1+n, func(i int) {
			if i == 0 {
				run = hint.AssignObjects(dom, objs)
			} else {
				job(i - 1)
			}
		})
		asg = run
	}
	levels := make([]hint.Directory[P], dom.M+1)
	hint.CutFan(dom.M, asg, func(level int, keys []uint32, parts []*P) {
		levels[level] = hint.Directory[P]{Keys: keys, Parts: parts}
	}, func() *builder {
		return &builder{objs: objs, count: make([]int, len(freqs))}
	}, func(b *builder, p *P, replica bool, lo, hi int) {
		div(b, p, replica, asg[lo:hi])
	})
	return levels, freqs
}

// cursors sets every element's write cursor into a division's arena in
// element order, and returns the sorted element directory and entry count.
func (b *builder) cursors(asgs []hint.Assignment) ([]model.ElemID, int) {
	b.seen = b.seen[:0]
	total := 0
	for _, a := range asgs {
		elems := b.objs[a.Obj].Elems
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
