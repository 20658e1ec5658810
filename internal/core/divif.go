package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
)

// divIF is the per-division temporal inverted file of the performance
// variant (Table 2: the I^O / I^R indices), split by HINT's subdivisions
// and stored in columns after its cache-misses and storage optimisations.
// Element elems[i]'s list is runs[i]: its in part, the entries ending
// inside the partition (O_in or R_in), and its aft part, those ending
// after it (O_aft or R_aft), each in id order in the id column (d.part).
// A part keeps only the endpoints Algorithm 5 compares there: an
// originals division keeps every entry's start at the same position of
// starts, and both kinds keep the in part's ends at
// ends[r.eoff:r.eoff+r.in]; a replicas division has no starts, so its aft
// part is ids alone. rooms is nil while every run is tight, as the bulk
// fill leaves them: the aft part follows the in part. Once an insert has
// made room, rooms[i] holds each part's, and the aft part starts after
// the in part's room, so that either part grows at its end without
// moving the other. dead counts the entries Delete has tombstoned.
type divIF struct {
	elems  []model.ElemID
	runs   []run
	rooms  []room
	ids    []model.ObjectID
	starts []model.Timestamp
	ends   []model.Timestamp
	dead   int32
}

// run is one list of a division: n entries from off, in of them in the in
// part, whose ends lie from eoff.
type run struct{ off, n, in, eoff uint32 }

// room is a run's room for each part: the in part's ids, starts and ends,
// and the aft part's ids and starts.
type room struct{ in, aft uint32 }

// aft returns the size of the run's aft part.
func (r *run) aft() uint32 { return r.n - r.in }

// grown returns the room the run needs for one more entry in its in or aft
// part: rm with that part's room doubled if it is full, and whether it was.
func (r *run) grown(rm room, aft bool) (room, bool) {
	switch {
	case aft && r.aft() == rm.aft:
		rm.aft = max(2*rm.aft, 1)
	case !aft && r.in == rm.in:
		rm.in = max(2*rm.in, 1)
	default:
		return rm, false
	}
	return rm, true
}

// roomOf returns run i's room: its parts' sizes while the runs are tight.
func (d *divIF) roomOf(i int) room {
	if d.rooms == nil {
		r := &d.runs[i]
		return room{r.in, r.aft()}
	}
	return d.rooms[i]
}

// part returns the bounds of run i's in part (aft false) or aft part in
// the id column.
func (d *divIF) part(i int, aft bool) (lo, hi uint32) {
	r := &d.runs[i]
	if !aft {
		return r.off, r.off + r.in
	}
	lo = r.off + r.in
	if d.rooms != nil {
		lo = r.off + d.rooms[i].in
	}
	return lo, lo + r.aft()
}

// endsAfter returns whether an interval ending at end, assigned to
// partition j of level, ends after it: the aft side of HINT's in/aft split.
func endsAfter(dom domain.Domain, level int, j uint32, end model.Timestamp) bool {
	_, hi := dom.PartitionExtent(level, j)
	return dom.Disc(end) > hi
}

// lastIn returns the largest timestamp whose cell is at most hi, so that
// an interval ends after a partition whose extent ends at cell hi exactly
// when its end lies past lastIn: Disc is monotone, so one comparison per
// object replaces a discretization.
func lastIn(dom domain.Domain, hi uint32) model.Timestamp {
	lo, up := model.Timestamp(math.MinInt64), model.Timestamp(math.MaxInt64)
	for lo < up {
		// Past the middle, so that lo moves; unsigned, so that the whole
		// range's width does not overflow.
		mid := lo + model.Timestamp((uint64(up)-uint64(lo))/2) + 1
		if dom.Disc(mid) <= hi {
			lo = mid
		} else {
			up = mid - 1
		}
	}
	return lo
}

// fill builds the division from its run of assignments, all to partition
// j of level on the builder's domain: every list in id order within each
// part, every run tight (no rooms), the id column exactly sized and the two
// endpoint columns carved from one exactly-sized arena. The first pass
// classifies each object in or aft by one comparison of its end, keeps the
// answer in the assignment's key (which has served once the division is
// handed out), and counts each element's entries per part in the two
// halves of one word; the objects ending inside are then written, and then
// those ending after, each pass keeping its cursors in the same word: one
// word per element, where three cursors cost a compaction 10–22 % in
// cache misses.
func (d *divIF) fill(b *perfBuilder, asgs []hint.Assignment, level int, j uint32, orig bool) {
	_, hi := b.dom.PartitionExtent(level, j)
	last := lastIn(b.dom, hi)
	total, in := 0, 0
	for i := range asgs {
		o := &b.objs[asgs[i].Obj]
		aft := uint64(b2i(o.Interval.End > last))
		asgs[i].Key = uint32(aft)
		total += len(o.Elems)
		in += len(o.Elems) * int(1-aft)
		// One count per element: in entries in the low half, aft in the high.
		step := 1 + aft*(1<<32-1)
		for _, e := range o.Elems {
			if b.cur[e] == 0 {
				b.seen.add(e)
			}
			b.cur[e] += step
		}
	}
	d.elems = b.seen.sorted()
	// The counts become the in pass's cursors: into the ids and starts in
	// the low half, into the ends in the high.
	d.runs = make([]run, len(d.elems))
	off, eoff := uint32(0), uint32(0)
	for i, e := range d.elems {
		nIn, nAft := uint32(b.cur[e]), uint32(b.cur[e]>>32)
		d.runs[i] = run{off: off, n: nIn + nAft, in: nIn, eoff: eoff}
		b.cur[e] = uint64(eoff)<<32 | uint64(off)
		off, eoff = off+nIn+nAft, eoff+nIn
	}
	ns := 0
	if orig {
		ns = total
	}
	d.ids = make([]model.ObjectID, total)
	endpoints := make([]model.Timestamp, ns+in)
	d.starts, d.ends = endpoints[:ns:ns], endpoints[ns:]
	for _, a := range asgs {
		if a.Key != 0 {
			continue
		}
		o := &b.objs[a.Obj]
		for _, e := range o.Elems {
			c := b.cur[e]
			d.ids[uint32(c)] = o.ID
			if orig {
				d.starts[uint32(c)] = o.Interval.Start
			}
			d.ends[c>>32] = o.Interval.End
			b.cur[e] = c + 1<<32 + 1
		}
	}
	// The aft pass's cursor: into the ids and starts behind the in part.
	for i, e := range d.elems {
		b.cur[e] = uint64(d.runs[i].off + d.runs[i].in)
	}
	for _, a := range asgs {
		if a.Key == 0 {
			continue
		}
		o := &b.objs[a.Obj]
		for _, e := range o.Elems {
			k := b.cur[e]
			d.ids[k] = o.ID
			if orig {
				d.starts[k] = o.Interval.Start
			}
			b.cur[e]++
		}
	}
	for _, e := range d.elems {
		b.cur[e] = 0
	}
	if postings.InvariantsEnabled {
		d.assertDivision("fill", -1, orig, &home{dom: b.dom, level: level, j: j, obj: b.object})
	}
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

// insert adds the entry to the in or aft part of element e's run in id
// order, creating the run if needed, and returns the run's index. When the
// part is full, the run first moves to the columns' tails with double the
// part's room (after a relayout if a tail has none, which also gives every
// run rooms), so appends stay amortised.
func (d *divIF) insert(e model.ElemID, id model.ObjectID, iv model.Interval, orig, aft bool) int {
	i, found := findElem(d.elems, e)
	if !found {
		d.elems = slices.Insert(d.elems, i, e)
		d.runs = slices.Insert(d.runs, i, run{off: uint32(len(d.ids)), eoff: uint32(len(d.ends))})
		if d.rooms != nil {
			d.rooms = slices.Insert(d.rooms, i, room{})
		}
	}
	r := &d.runs[i]
	rm, full := r.grown(d.roomOf(i), aft)
	if full && (d.rooms == nil || len(d.ids)+int(rm.in+rm.aft) > cap(d.ids) || len(d.ends)+int(rm.in) > cap(d.ends)) {
		// Twice the room asked for: the relayout adds an eighth to the
		// part that is not full.
		d.relayout(2*int(rm.in+rm.aft), 2*int(rm.in), orig)
		rm, full = r.grown(d.rooms[i], aft)
	}
	if full {
		off, eoff := uint32(len(d.ids)), uint32(len(d.ends))
		inLo, inHi := d.part(i, false)
		aftLo, aftHi := d.part(i, true)
		d.ids = d.ids[:off+rm.in+rm.aft]
		copy(d.ids[off:], d.ids[inLo:inHi])
		copy(d.ids[off+rm.in:], d.ids[aftLo:aftHi])
		if orig {
			d.starts = d.starts[:off+rm.in+rm.aft]
			copy(d.starts[off:], d.starts[inLo:inHi])
			copy(d.starts[off+rm.in:], d.starts[aftLo:aftHi])
		}
		d.ends = d.ends[:eoff+rm.in]
		copy(d.ends[eoff:], d.ends[r.eoff:r.eoff+r.in])
		r.off, r.eoff, d.rooms[i] = off, eoff, rm
	}
	// The part's ids and starts move up one slot from k; an in entry's end
	// moves up in ends.
	lo, hi := d.part(i, aft)
	k := lo + uint32(sort.Search(int(hi-lo), func(k int) bool { return d.ids[lo+uint32(k)] > id }))
	copy(d.ids[k+1:hi+1], d.ids[k:hi])
	d.ids[k] = id
	if orig {
		copy(d.starts[k+1:hi+1], d.starts[k:hi])
		d.starts[k] = iv.Start
	}
	if !aft {
		ek := r.eoff + (k - r.off)
		copy(d.ends[ek+1:r.eoff+r.in+1], d.ends[ek:r.eoff+r.in])
		d.ends[ek] = iv.End
		r.in++
	}
	r.n++
	return i
}

// relayout copies the division into new columns, every part with an
// eighth more room than it holds and each column an eighth (at least tail
// or endsTail) to spare: a tight, bulk-built division is copied once here,
// not once per touched run. The endpoint columns share one arena.
func (d *divIF) relayout(tail, endsTail int, orig bool) {
	rooms := make([]room, len(d.runs))
	total, totalEnds := 0, 0
	for i := range d.runs {
		r := &d.runs[i]
		rooms[i] = room{r.in + r.in/8, r.aft() + r.aft()/8}
		total += int(rooms[i].in + rooms[i].aft)
		totalEnds += int(rooms[i].in)
	}
	ids := make([]model.ObjectID, total, total+max(total/8, tail))
	capStarts := 0
	if orig {
		capStarts = cap(ids)
	}
	endpoints := make([]model.Timestamp, capStarts+totalEnds+max(totalEnds/8, endsTail))
	var starts []model.Timestamp
	if orig {
		starts = endpoints[:total:capStarts]
	}
	ends := endpoints[capStarts : capStarts+totalEnds]
	off, eoff := uint32(0), uint32(0)
	for i := range d.runs {
		// Many parts are empty, and a division may hold many thousands of
		// runs: copy only what is there.
		r := &d.runs[i]
		if r.in > 0 {
			copy(ids[off:off+r.in], d.ids[r.off:r.off+r.in])
			if orig {
				copy(starts[off:off+r.in], d.starts[r.off:r.off+r.in])
			}
			copy(ends[eoff:eoff+r.in], d.ends[r.eoff:r.eoff+r.in])
		}
		if n := r.aft(); n > 0 {
			lo, to := r.off+r.in, off+rooms[i].in
			if d.rooms != nil {
				lo = r.off + d.rooms[i].in
			}
			copy(ids[to:to+n], d.ids[lo:lo+n])
			if orig {
				copy(starts[to:to+n], d.starts[lo:lo+n])
			}
		}
		r.off, r.eoff = off, eoff
		off += rooms[i].in + rooms[i].aft
		eoff += rooms[i].in
	}
	d.rooms, d.ids, d.starts, d.ends = rooms, ids, starts, ends
	if postings.InvariantsEnabled {
		d.assertDivision("relayout", -1, orig, nil)
	}
}

// kill deletes object id from the in or aft part of element e's run and
// returns the run's index, or -1 if no live entry was found there. It
// writes the Tombstone sentinel into the endpoints the part stores (both
// in O_in, the start in O_aft, the end in R_in), which are never those of
// a live entry of that part; an R_aft entry stores none and is removed
// outright.
func (d *divIF) kill(e model.ElemID, id model.ObjectID, orig, aft bool) int {
	i, found := findElem(d.elems, e)
	if !found {
		return -1
	}
	r := &d.runs[i]
	lo, hi := d.part(i, aft)
	k, ok := slices.BinarySearch(d.ids[lo:hi], id)
	if !ok {
		return -1
	}
	at := lo + uint32(k)
	ek := r.eoff + (at - r.off)
	switch {
	case !orig && aft:
		copy(d.ids[at:hi-1], d.ids[at+1:hi])
		r.n--
		return i
	case !orig:
		if d.ends[ek] == math.MinInt64 {
			return -1
		}
		d.ends[ek] = math.MinInt64
	case aft:
		if d.starts[at] == math.MaxInt64 {
			return -1
		}
		d.starts[at] = math.MaxInt64
	default:
		if d.starts[at] == math.MaxInt64 && d.ends[ek] == math.MinInt64 {
			return -1
		}
		d.starts[at], d.ends[ek] = math.MaxInt64, math.MinInt64
	}
	d.dead++
	return i
}

// idPart returns the in or aft part of element e's id run, or nil.
func (d *divIF) idPart(e model.ElemID, aft bool) []model.ObjectID {
	if i, ok := findElem(d.elems, e); ok {
		lo, hi := d.part(i, aft)
		return d.ids[lo:hi]
	}
	return nil
}

// Run indices in a query's memo of later elements' runs: not yet looked
// up, or not in the division.
const (
	runUnknown = -1
	runMissing = -2
)

// query runs the reduced time-travel IR query of Algorithm 5 on this
// division, one part after the other: Algorithm 1 with the temporal
// predicate trimmed to the checks HINT's obligations leave on each part.
// The in part owes the division's checks; the aft part only the end check,
// as its entries end after the partition that holds q.start (a replicas
// division owes no end check, so its aft part owes nothing). The plan is
// pre-ordered by global frequency; results append to dst in id order per
// part. scratch is a reusable candidate buffer (grown as needed and
// returned) so that traversals over many small divisions do not allocate
// per division. at memoises the later elements' run indices across the
// two parts, so each element is looked up at most once per division.
//
// Only the first list reads endpoints, where a check is owed or a
// tombstone may be; else it is its id part, read in place. A check against
// a query end at a timestamp limit holds for every real interval and is
// dropped, so each check left rejects the Tombstone sentinel by itself.
//
// probes is parallel to plan: a later element with a bitmap filters the
// candidates by bit tests instead of a merge with its list. A candidate is
// a live object of the division, which holds an entry for every element of
// every object it was assigned, so the object carries the element exactly
// when it is in the division's list for it. The filter writes to scratch
// only: candidates read in place are the index's own column.
//
// Both filters are branch-free in the data (keepOwed and its one-endpoint
// forms, Bitmap.KeepSorted): lists are in id order, not time order, so a
// branch per entry on its lifespan or bit would mispredict about as often
// as not.
func (d *divIF) query(q model.Interval, plan []model.ElemID, probes []*postings.Bitmap, at []int32, orig, checkStart, checkEnd bool, scratch, dst []model.ObjectID) ([]model.ObjectID, []model.ObjectID) {
	i, ok := findElem(d.elems, plan[0])
	if !ok {
		return scratch, dst
	}
	for k := range at {
		at[k] = runUnknown
	}
	r := d.runs[i]
	checkStart = checkStart && q.Start != math.MinInt64
	checkEnd = checkEnd && q.End != math.MaxInt64
	filter := d.dead > 0
	if checkStart || checkEnd || filter || len(plan) > 1 {
		// Room for the whole run at once, not part by part.
		scratch = slices.Grow(scratch[:0], int(r.n))
	}
	for _, aft := range [2]bool{false, true} {
		lo, hi := d.part(i, aft)
		cands := d.ids[lo:hi]
		if len(cands) == 0 {
			continue
		}
		switch {
		case !aft && orig && (checkStart || checkEnd || filter):
			scratch = keepOwed(q, cands, d.starts[lo:hi], d.ends[r.eoff:r.eoff+r.in], checkStart, checkEnd, scratch)
			cands = scratch
		case !aft && (checkStart || filter):
			// R_in: live ends lie past MinInt64, the sentinel.
			bound := model.Timestamp(math.MinInt64 + 1)
			if checkStart {
				bound = q.Start
			}
			scratch = keepAtLeast(cands, d.ends[r.eoff:r.eoff+r.in], bound, scratch)
			cands = scratch
		case aft && orig && (checkEnd || filter):
			// O_aft: live starts lie before MaxInt64, the sentinel.
			bound := model.Timestamp(math.MaxInt64 - 1)
			if checkEnd {
				bound = q.End
			}
			scratch = keepAtMost(cands, d.starts[lo:hi], bound, scratch)
			cands = scratch
		}
		scratch, cands = d.narrow(plan, probes, at, aft, cands, scratch)
		dst = append(dst, cands...)
	}
	return scratch, dst
}

// narrow intersects one part's candidates with the same part of every
// later plan element's run, or filters them by its bitmap; it returns the
// scratch buffer and the candidates left. Later parts' tombstones match:
// Delete tombstones every copy, and removes every R_aft one.
func (d *divIF) narrow(plan []model.ElemID, probes []*postings.Bitmap, at []int32, aft bool, cands, scratch []model.ObjectID) ([]model.ObjectID, []model.ObjectID) {
	for k := 1; k < len(plan) && len(cands) > 0; k++ {
		if bm := probes[k]; bm != nil {
			// Writes trail reads, so cands may be scratch itself.
			scratch = bm.KeepSorted(scratch[:0], cands)
			cands = scratch
			continue
		}
		if at[k] == runUnknown {
			at[k] = runMissing
			if i, ok := findElem(d.elems, plan[k]); ok {
				at[k] = int32(i)
			}
		}
		if at[k] == runMissing {
			return scratch, nil
		}
		lo, hi := d.part(int(at[k]), aft)
		scratch = postings.IntersectAnySorted(cands, d.ids[lo:hi], scratch[:0])
		cands = scratch
	}
	return scratch, cands
}

// keepOwed writes into buf, grown to len(ids), the ids of an O_in part
// whose lifespans pass the owed checks, and returns it. With no check owed
// it drops the Tombstone sentinel only, tested exactly: a live object may
// start at MaxInt64. Each loop writes every id and advances past it by its
// predicate, so no branch depends on the lifespans.
func keepOwed(q model.Interval, ids []model.ObjectID, starts, ends []model.Timestamp, checkStart, checkEnd bool, buf []model.ObjectID) []model.ObjectID {
	out, n := slices.Grow(buf[:0], len(ids))[:len(ids)], 0
	starts, ends = starts[:len(ids)], ends[:len(ids)]
	switch {
	case checkStart && checkEnd:
		for k, s := range starts {
			out[n] = ids[k]
			n += b2i(ends[k] >= q.Start) & b2i(s <= q.End)
		}
	case checkStart:
		for k, e := range ends {
			out[n] = ids[k]
			n += b2i(e >= q.Start)
		}
	case checkEnd:
		for k, s := range starts {
			out[n] = ids[k]
			n += b2i(s <= q.End)
		}
	default:
		for k, s := range starts {
			out[n] = ids[k]
			n += b2i(s != math.MaxInt64) | b2i(ends[k] != math.MinInt64)
		}
	}
	return out[:n]
}

// keepAtLeast writes into buf the ids whose one stored endpoint (an R_in
// part's end) is at least bound, and returns it; keepAtMost keeps those at
// most bound (an O_aft part's start). Both are keepOwed's loop over one
// column.
func keepAtLeast(ids []model.ObjectID, ts []model.Timestamp, bound model.Timestamp, buf []model.ObjectID) []model.ObjectID {
	out, n := slices.Grow(buf[:0], len(ids))[:len(ids)], 0
	for k, t := range ts[:len(ids)] {
		out[n] = ids[k]
		n += b2i(t >= bound)
	}
	return out[:n]
}

func keepAtMost(ids []model.ObjectID, ts []model.Timestamp, bound model.Timestamp, buf []model.ObjectID) []model.ObjectID {
	out, n := slices.Grow(buf[:0], len(ids))[:len(ids)], 0
	for k, t := range ts[:len(ids)] {
		out[n] = ids[k]
		n += b2i(t <= bound)
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

// entryCount counts stored entries (including tombstones).
func (d *divIF) entryCount() int64 {
	var n int64
	for _, r := range d.runs {
		n += int64(r.n)
	}
	return n
}

// sizeBytes estimates resident bytes: 4 B of id per entry slot and 8 B
// per stored endpoint slot, except that an originals division's in part
// counts its pair of endpoints at the paper's 12 B of lifespan (8 B of
// start, 4 B more of end), so an O_in entry is the paper's 16 B, an O_aft
// or R_in entry 12 B and an R_aft entry 4 B; 4 B of element key and 16 B
// of run per list, 8 B more of room once an insert has given the runs
// rooms; six slice headers and the dead counter.
func (d *divIF) sizeBytes(orig bool) int64 {
	endBytes := int64(8)
	if orig {
		endBytes = 4
	}
	return int64(cap(d.elems))*4 + int64(cap(d.runs))*16 + int64(cap(d.rooms))*8 + int64(cap(d.ids))*4 + int64(cap(d.starts))*8 + int64(cap(d.ends))*endBytes + 6*24 + 8
}

// home is where a division sits, for its invariant check: partition j of
// level on dom, and obj, which returns the interval of an object the
// caller knows and whether that object is live (nil: none known).
type home struct {
	dom   domain.Domain
	level int
	j     uint32
	obj   func(model.ObjectID) (iv model.Interval, live, known bool)
}

// assertDivision panics, in an invariants build, unless the elements
// ascend; rooms, if any, match the runs one for one; every run's parts fit
// their rooms, both id-ascending, its ids (and starts) room inside the id
// column and its ends room inside the ends column, each clear of the other
// runs'; and the starts column is the id column's length in an originals
// division, empty in a replicas one. touched < 0 checks every run, in
// element order as the fill and relayout leave them; touched = i only what
// an insert or a delete in i can break.
//
// Given the division's home, it also checks that every entry sits in the
// part its interval names against the partition's extent — from the
// endpoints the part stores, and from the whole interval where h.obj knows
// the object — and that no R_aft run holds an object h.obj knows deleted.
func (d *divIF) assertDivision(context string, touched int, orig bool, h *home) {
	if !postings.InvariantsEnabled {
		return
	}
	fail := func(format string, args ...any) {
		// invariants build: a broken division layout must abort loudly
		panic(fmt.Sprintf("core: invariant violated in divIF."+context+": "+format, args...))
	}
	if wantStarts := len(d.ids); !orig && len(d.starts) != 0 || orig && len(d.starts) != wantStarts {
		fail("starts column of %d for %d ids (originals %v)", len(d.starts), len(d.ids), orig)
	}
	if d.rooms != nil && len(d.rooms) != len(d.runs) {
		fail("%d rooms for %d runs", len(d.rooms), len(d.runs))
	}
	// Run i holds ids[off:off+c] and ends[eoff:eoff+rm.in].
	span := func(i int) (r run, rm room, c uint32) {
		r, rm = d.runs[i], d.roomOf(i)
		return r, rm, rm.in + rm.aft
	}
	end, endsEnd := uint32(0), uint32(0)
	for i := range d.runs {
		r, rm, c := span(i)
		inLo, inHi := d.part(i, false)
		aftLo, aftHi := d.part(i, true)
		switch {
		case i > 0 && d.elems[i-1] >= d.elems[i]:
			fail("elements not ascending at %d", i)
		case touched >= 0 && i != touched:
			continue
		case r.in > r.n || r.in > rm.in || r.aft() > rm.aft || int(r.off)+int(c) > len(d.ids) || int(r.eoff)+int(rm.in) > len(d.ends):
			fail("run %d %+v with room %+v overfull or past the columns", i, r, rm)
		case !slices.IsSorted(d.ids[inLo:inHi]) || !slices.IsSorted(d.ids[aftLo:aftHi]):
			fail("run %d not id-ascending in a part", i)
		case r.off < end || r.eoff < endsEnd:
			fail("run %d overlaps run %d", i, i-1)
		}
		end, endsEnd = r.off+c, r.eoff+rm.in
		for j := range d.runs {
			o, orm, oc := span(j)
			if touched >= 0 && j != i && (r.off < o.off+oc && o.off < r.off+c || r.eoff < o.eoff+orm.in && o.eoff < r.eoff+rm.in) {
				fail("run %d overlaps run %d", i, j)
			}
		}
		if h != nil {
			d.assertPlaced(fail, i, orig, h)
		}
	}
}

// assertPlaced is assertDivision's check of run i's entries against the
// division's home.
func (d *divIF) assertPlaced(fail func(string, ...any), i int, orig bool, h *home) {
	lo, hi := h.dom.PartitionExtent(h.level, h.j)
	inside := func(t model.Timestamp) bool { c := h.dom.Disc(t); return lo <= c && c <= hi }
	for _, aft := range [2]bool{false, true} {
		plo, phi := d.part(i, aft)
		for k := plo; k < phi; k++ {
			id := d.ids[k]
			if iv, live, known := h.obj(id); known {
				switch {
				case !live && !orig && aft:
					fail("R_aft run of element %d holds deleted object %d", d.elems[i], id)
				case live && (h.dom.Prefix(h.level, h.dom.Disc(iv.Start)) == h.j) != orig:
					fail("element %d: object %d %v in the %s division of partition %d/%d", d.elems[i], id, iv, map[bool]string{true: "originals", false: "replicas"}[orig], h.level, h.j)
				case live && endsAfter(h.dom, h.level, h.j, iv.End) != aft:
					fail("element %d: object %d %v in the wrong part (aft %v) of partition %d/%d", d.elems[i], id, iv, aft, h.level, h.j)
				}
			}
			// What the part stores says where its live entries lie.
			if orig && d.starts[k] != math.MaxInt64 && !inside(d.starts[k]) {
				fail("element %d: original %d starts at %d, outside partition %d/%d", d.elems[i], id, d.starts[k], h.level, h.j)
			}
			if !aft {
				if e := d.ends[d.runs[i].eoff+k-plo]; e != math.MinInt64 && h.dom.Disc(e) > hi || !orig && e != math.MinInt64 && !inside(e) {
					fail("element %d: in entry %d ends at %d, outside partition %d/%d", d.elems[i], id, e, h.level, h.j)
				}
			}
		}
	}
}

// each calls fn for every entry of run i with whether its part stores a
// live entry there (an R_aft entry is always live; the others are live
// unless the endpoints they store are the Tombstone sentinel's).
func (d *divIF) each(i int, orig bool, fn func(id model.ObjectID, live bool)) {
	r := &d.runs[i]
	lo, hi := d.part(i, false)
	for k := lo; k < hi; k++ {
		end := d.ends[r.eoff+k-lo]
		live := end != math.MinInt64
		if orig {
			live = live || d.starts[k] != math.MaxInt64
		}
		fn(d.ids[k], live)
	}
	lo, hi = d.part(i, true)
	for k := lo; k < hi; k++ {
		fn(d.ids[k], !orig || d.starts[k] != math.MaxInt64)
	}
}
