package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
)

// divIF is the per-division temporal inverted file of the performance
// variant (Table 2: the I^O / I^R indices) in two columns, after HINT's
// cache-misses optimisation: element elems[i]'s list is ids[r.off:r.off+r.n],
// r = runs[i], with room for r.c, and its lifespans lie at the same
// positions of spans. dead counts the entries Delete has tombstoned.
type divIF struct {
	elems []model.ElemID
	runs  []run
	ids   []model.ObjectID
	spans []model.Interval
	dead  int32
}

// run is one list of a division: n entries from off, with room for c.
type run struct{ off, n, c uint32 }

// fill builds the division from its run of assignments, every list in id
// order, both arenas exactly sized and every run tight (c == n).
func (d *divIF) fill(b *builder, asgs []hint.Assignment) {
	var total int
	d.elems, total = b.cursors(asgs)
	d.ids, d.spans = make([]model.ObjectID, total), make([]model.Interval, total)
	for _, a := range asgs {
		o := &b.objs[a.Obj]
		for _, e := range o.Elems {
			k := b.count[e]
			d.ids[k], d.spans[k] = o.ID, o.Interval
			b.count[e]++
		}
	}
	// Every cursor now stands at its list's end, the next list's start.
	d.runs = make([]run, len(d.elems))
	start := 0
	for i, e := range d.elems {
		end := b.count[e]
		d.runs[i] = run{off: uint32(start), n: uint32(end - start), c: uint32(end - start)}
		start, b.count[e] = end, 0
	}
	d.assertDivision("fill", -1)
}

// findElem locates e in the sorted element directory: a linear scan for
// the short directories that dominate deep hierarchy levels, hint.LowerBound
// otherwise.
func findElem(elems []model.ElemID, e model.ElemID) (int, bool) {
	if len(elems) <= 8 {
		for i, have := range elems {
			if have >= e {
				return i, have == e
			}
		}
		return len(elems), false
	}
	i := hint.LowerBound(elems, e)
	return i, i < len(elems) && elems[i] == e
}

// insert adds the entry to element e's run in id order, creating the run
// if needed. A full run first moves to the arenas' tail with double its
// room (after a relayout if the tail has none), so appends stay amortised.
func (d *divIF) insert(e model.ElemID, id model.ObjectID, iv model.Interval) {
	i, found := findElem(d.elems, e)
	if !found {
		d.elems = slices.Insert(d.elems, i, e)
		d.runs = slices.Insert(d.runs, i, run{off: uint32(len(d.ids))})
	}
	r := &d.runs[i]
	if need := max(2*int(r.n), 1); r.n == r.c && len(d.ids)+need > cap(d.ids) {
		d.relayout(need)
	}
	if r.n == r.c {
		off := len(d.ids)
		r.c = max(2*r.n, 1)
		d.ids, d.spans = d.ids[:off+int(r.c)], d.spans[:off+int(r.c)]
		copy(d.ids[off:], d.ids[r.off:r.off+r.n])
		copy(d.spans[off:], d.spans[r.off:r.off+r.n])
		r.off = uint32(off)
	}
	ids, spans := d.ids[r.off:r.off+r.n+1], d.spans[r.off:r.off+r.n+1]
	k := int(r.n)
	if k > 0 && ids[k-1] > id {
		// After any equal id, as appending in arrival order leaves them.
		k = sort.Search(k, func(k int) bool { return ids[k] > id })
		copy(ids[k+1:], ids[k:])
		copy(spans[k+1:], spans[k:])
	}
	ids[k], spans[k] = id, iv
	r.n++
	d.assertDivision("insert", i)
}

// relayout copies the division into new arenas, every run with an eighth
// more room than it holds and an eighth (at least tail) to spare: a tight,
// bulk-built division is copied once here, not once per touched run.
func (d *divIF) relayout(tail int) {
	total := 0
	for _, r := range d.runs {
		total += int(r.n + r.n/8)
	}
	ids := make([]model.ObjectID, total, total+max(total/8, tail))
	spans := make([]model.Interval, total, cap(ids))
	off := uint32(0)
	for i := range d.runs {
		r := &d.runs[i]
		copy(ids[off:], d.ids[r.off:r.off+r.n])
		copy(spans[off:], d.spans[r.off:r.off+r.n])
		r.off, r.c = off, r.n+r.n/8
		off += r.c
	}
	d.ids, d.spans = ids, spans
	d.assertDivision("relayout", -1)
}

// kill tombstones object id in element e's run; reports whether a live
// entry was found.
func (d *divIF) kill(e model.ElemID, id model.ObjectID) bool {
	i, found := findElem(d.elems, e)
	if !found {
		return false
	}
	r := d.runs[i]
	k, ok := slices.BinarySearch(d.ids[r.off:r.off+r.n], id)
	if k += int(r.off); !ok || postings.IsTombstone(d.spans[k]) {
		return false
	}
	d.spans[k] = postings.Tombstone
	d.dead++
	return true
}

// idRun returns element e's id run, or nil.
func (d *divIF) idRun(e model.ElemID) []model.ObjectID {
	if i, ok := findElem(d.elems, e); ok {
		r := d.runs[i]
		return d.ids[r.off : r.off+r.n]
	}
	return nil
}

// query runs the reduced time-travel IR query of Algorithm 5 on this
// division: Algorithm 1 with the temporal predicate trimmed to the checks
// the division's obligations require. The plan is pre-ordered by global
// frequency; results append to dst in id order per division. scratch is a
// reusable candidate buffer (grown as needed and returned) so that
// traversals over many small divisions do not allocate per division.
//
// Only the first list reads lifespans, where a check is owed or a tombstone
// may be; else it is its id run, read in place. A check against a query end
// at a timestamp limit holds for every real interval and is dropped, so
// each check left rejects the Tombstone sentinel by itself.
//
// probes is parallel to plan: a later element with a bitmap filters the
// candidates by bit tests instead of a merge with its list. A candidate is
// a live object of the division, which holds an entry for every element of
// every object it was assigned, so the object carries the element exactly
// when it is in the division's list for it. The filter writes to scratch
// only: candidates read in place are the index's own arena.
//
// Both filters are branch-free in the data (keepOwed, Bitmap.KeepSorted):
// lists are in id order, not time order, so a branch per entry on its
// lifespan or bit would mispredict about as often as not.
func (d *divIF) query(q model.Interval, plan []model.ElemID, probes []*postings.Bitmap, checkStart, checkEnd bool, scratch, dst []model.ObjectID) ([]model.ObjectID, []model.ObjectID) {
	i, ok := findElem(d.elems, plan[0])
	if !ok {
		return scratch, dst
	}
	r := d.runs[i]
	cands, spans := d.ids[r.off:r.off+r.n], d.spans[r.off:r.off+r.n]
	checkStart = checkStart && q.Start != math.MinInt64
	checkEnd = checkEnd && q.End != math.MaxInt64
	if checkStart || checkEnd || d.dead > 0 {
		scratch = keepOwed(q, cands, spans, checkStart, checkEnd, scratch)
		cands = scratch
	}
	for k, e := range plan[1:] {
		if len(cands) == 0 {
			break
		}
		if bm := probes[k+1]; bm != nil {
			// Writes trail reads, so cands may be scratch itself.
			scratch = bm.KeepSorted(scratch[:0], cands)
		} else {
			// Later lists' tombstones match: Delete tombstones every copy.
			scratch = postings.IntersectAnySorted(cands, d.idRun(e), scratch[:0])
		}
		cands = scratch
	}
	return scratch, append(dst, cands...)
}

// keepOwed writes into buf, grown to len(ids), the ids whose lifespans
// pass the owed checks, and returns it. With no check owed it drops the
// Tombstone sentinel only, tested exactly: a live object may start at
// MaxInt64. Each loop writes every id and advances past it by its
// predicate, so no branch depends on the lifespans.
func keepOwed(q model.Interval, ids []model.ObjectID, spans []model.Interval, checkStart, checkEnd bool, buf []model.ObjectID) []model.ObjectID {
	out, n := slices.Grow(buf[:0], len(spans))[:len(spans)], 0
	ids = ids[:len(spans)]
	switch {
	case checkStart && checkEnd:
		for k, s := range spans {
			out[n] = ids[k]
			n += b2i(s.End >= q.Start) & b2i(s.Start <= q.End)
		}
	case checkStart:
		for k, s := range spans {
			out[n] = ids[k]
			n += b2i(s.End >= q.Start)
		}
	case checkEnd:
		for k, s := range spans {
			out[n] = ids[k]
			n += b2i(s.Start <= q.End)
		}
	default:
		for k, s := range spans {
			out[n] = ids[k]
			n += b2i(s.Start != math.MaxInt64) | b2i(s.End != math.MinInt64)
		}
	}
	return out[:n]
}

// b2i is 1 for true and 0 for false; the compiler emits it as a SETcc,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// entryCount counts stored postings entries (including tombstones).
func (d *divIF) entryCount() int64 {
	var n int64
	for _, r := range d.runs {
		n += int64(r.n)
	}
	return n
}

// sizeBytes estimates resident bytes: the paper's 16 B per entry slot (4 B
// of id, 12 of lifespan), 4 B of element key and 12 B of run per list, and
// four slice headers plus the dead counter.
func (d *divIF) sizeBytes() int64 {
	return int64(cap(d.elems))*4 + int64(cap(d.runs))*12 + int64(cap(d.ids))*4 + int64(cap(d.spans))*12 + 4*24 + 8
}

// assertDivision panics, in an invariants build, unless the elements ascend
// and every run is id-ascending, n <= c, inside both arenas and clear of
// the others. touched < 0 checks every run, in element order as the fill
// and relayout leave them; touched = i only what an insert into i can break.
func (d *divIF) assertDivision(context string, touched int) {
	if !postings.InvariantsEnabled {
		return
	}
	fail := func(format string, args ...any) {
		// invariants build: a broken division layout must abort loudly
		panic(fmt.Sprintf("core: invariant violated in divIF."+context+": "+format, args...))
	}
	end := uint32(0)
	for i, r := range d.runs {
		switch {
		case i > 0 && d.elems[i-1] >= d.elems[i]:
			fail("elements not ascending at %d", i)
		case touched >= 0 && i != touched:
			continue
		case r.n > r.c || int(r.off)+int(r.c) > min(len(d.ids), len(d.spans)):
			fail("run %d %+v overfull or past the arenas", i, r)
		case !slices.IsSorted(d.ids[r.off : r.off+r.n]):
			fail("run %d not id-ascending", i)
		case r.off < end:
			fail("run %d overlaps run %d", i, i-1)
		}
		end = r.off + r.c
		for j, o := range d.runs {
			if touched >= 0 && j != i && r.off < o.off+o.c && o.off < r.off+r.c {
				fail("run %d overlaps run %d", i, j)
			}
		}
	}
}
