package postings

import "repro/internal/model"

// ByElement is the scatter step of the tIF and tIF+Sharding bulk builds. It
// visits object(0) to object(n-1) and writes each one's posting into the
// list of each of its elements, all lists in one exactly-sized arena, so
// every list holds its objects in visiting order. freqs[e] is the number
// of objects carrying element e; e's list ends at ends[e], where e+1's
// begins.
func ByElement(freqs []int, n int, object func(i int) *model.Object) (arena []Posting, ends []int) {
	ends = make([]int, len(freqs))
	total := 0
	for e, f := range freqs {
		ends[e], total = total, total+f
	}
	arena = make([]Posting, total)
	for i := 0; i < n; i++ {
		o := object(i)
		for _, e := range o.Elems {
			arena[ends[e]] = Posting{ID: o.ID, Interval: o.Interval}
			ends[e]++
		}
	}
	return arena, ends
}

// Carve cuts arena into consecutive lists, the k-th ending at ends[k]. Each
// is a view with cap == len, so an append to one reallocates it instead of
// writing into the next.
func Carve[T any](arena []T, ends []int) [][]T {
	lists := make([][]T, len(ends))
	start := 0
	for k, end := range ends {
		lists[k] = arena[start:end:end]
		start = end
	}
	return lists
}

// BySlice is the scatter step of the sliced layouts' bulk builds
// (tIF+Slicing, and the tIF+HINT+Slicing hybrid's second copy): every
// element with freqs[e] > 0 gets ns lists, and object o's entry(o) goes
// into lists first to last of each of its elements, where first, last =
// span(o). Objects are visited in order, so every list holds them in that
// order. The lists are counted, then carved from one exactly-sized arena,
// and every element's ns list headers from one backing array; an element
// no object carries gets nil.
func BySlice[T any](objs []model.Object, freqs []int, ns int, span func(o *model.Object) (first, last int), entry func(o *model.Object) T) [][][]T {
	row := make([]int, len(freqs)) // element -> its first list
	rows := 0
	for e, n := range freqs {
		if n > 0 {
			row[e], rows = rows*ns, rows+1
		}
	}
	// Count every list, then turn the counts into write cursors.
	cursor := make([]int, rows*ns)
	for i := range objs {
		first, last := span(&objs[i])
		for _, e := range objs[i].Elems {
			for k := row[e] + first; k <= row[e]+last; k++ {
				cursor[k]++
			}
		}
	}
	total := 0
	for k, n := range cursor {
		cursor[k], total = total, total+n
	}
	arena := make([]T, total)
	for i := range objs {
		o := &objs[i]
		first, last := span(o)
		x := entry(o)
		for _, e := range o.Elems {
			for k := row[e] + first; k <= row[e]+last; k++ {
				arena[cursor[k]] = x
				cursor[k]++
			}
		}
	}
	// Every cursor now stands at its list's end, the next one's start.
	lists := Carve(arena, cursor)
	out := make([][][]T, len(freqs))
	for e, n := range freqs {
		if n > 0 {
			out[e] = lists[row[e] : row[e]+ns : row[e]+ns]
		}
	}
	return out
}
