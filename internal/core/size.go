package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/postings"
)

// sizeDiv is one division of the size variant: the interval store (each
// lifespan exactly once, beneficially sorted — by start for originals, by
// end for replicas) plus an id-only inverted index. dead counts the store
// entries Delete has tombstoned: their ids are still in the lists, so a
// division with dead > 0 must consult the store even when its obligations
// ask for no comparison.
type sizeDiv struct {
	ivals []postings.Posting
	elems []model.ElemID
	lists [][]model.ObjectID
	dead  int32
}

// sizePart is one partition: originals and replicas divisions.
type sizePart struct {
	o sizeDiv
	r sizeDiv
}

// SizeIndex is the size-focused irHINT variant (Section 4.2 /
// Algorithm 6): per division the temporal and description attributes are
// decoupled, so each object's interval is stored once per division
// regardless of its description size, and full HINT beneficial sorting
// applies to the interval store.
type SizeIndex struct {
	dom    domain.Domain
	levels []hint.Directory[sizePart]
	freqs  []int
	live   int
}

// NewSize builds the size irHINT over a collection with the same bulk
// kernel as NewPerf: per division one interval store, sorted once, and
// id-only lists that are views into one exactly-sized arena.
func NewSize(c *model.Collection, opts ...Option) *SizeIndex {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	ix := &SizeIndex{dom: resolveDomain(c, cfg), live: len(c.Objects)}
	ix.levels, ix.freqs = bulkBuild(ix.dom, c, nil, func(b *builder, p *sizePart, replica bool, asgs []hint.Assignment) {
		d, key := &p.o, byStart
		if replica {
			d, key = &p.r, byEnd
		}
		d.ivals = make([]postings.Posting, len(asgs))
		for i, a := range asgs {
			d.ivals[i] = postings.Posting{ID: b.objs[a.Obj].ID, Interval: b.objs[a.Obj].Interval}
		}
		// Ties in id order, as sorted insertion leaves them.
		slices.SortFunc(d.ivals, func(x, y postings.Posting) int {
			return cmp.Or(cmp.Compare(key(x), key(y)), cmp.Compare(x.ID, y.ID))
		})
		d.elems, d.lists = carveLists(b, asgs, func(o *model.Object) model.ObjectID { return o.ID })
	})
	return ix
}

// Domain exposes the discretization.
func (ix *SizeIndex) Domain() domain.Domain { return ix.dom }

// M returns the hierarchy bits.
func (ix *SizeIndex) M() int { return ix.dom.M }

// Len returns the number of live objects.
func (ix *SizeIndex) Len() int { return ix.live }

// Insert routes the object and adds, per division: one interval-store
// entry plus one id per element in the division's inverted index.
func (ix *SizeIndex) Insert(o model.Object) {
	p := postings.Posting{ID: o.ID, Interval: o.Interval}
	hint.Assign(ix.dom, o.Interval, func(level int, j uint32, original, _ bool) {
		part := ix.levels[level].GetOrCreate(j)
		div, key := &part.o, byStart
		if !original {
			div, key = &part.r, byEnd
		}
		div.ivals = insertSortedBy(div.ivals, p, key)
		for _, e := range o.Elems {
			div.addElem(e, o.ID)
		}
	})
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		ix.freqs[e]++
	}
	ix.live++
}

func byStart(p postings.Posting) model.Timestamp { return p.Interval.Start }
func byEnd(p postings.Posting) model.Timestamp   { return p.Interval.End }

func insertSortedBy(s []postings.Posting, p postings.Posting, key func(postings.Posting) model.Timestamp) []postings.Posting {
	if n := len(s); n == 0 || key(s[n-1]) <= key(p) {
		return append(s, p)
	}
	i := sort.Search(len(s), func(i int) bool { return key(s[i]) > key(p) })
	s = append(s, postings.Posting{})
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// addElem appends id to element e's id-only postings list.
func (d *sizeDiv) addElem(e model.ElemID, id model.ObjectID) {
	i, found := findElem(d.elems, e)
	if !found {
		d.elems = append(d.elems, 0)
		d.lists = append(d.lists, nil)
		copy(d.elems[i+1:], d.elems[i:])
		copy(d.lists[i+1:], d.lists[i:])
		d.elems[i] = e
		d.lists[i] = nil
	}
	l := d.lists[i]
	if n := len(l); n == 0 || l[n-1] < id {
		d.lists[i] = append(l, id)
		return
	}
	k := sort.Search(len(l), func(k int) bool { return l[k] >= id })
	if k < len(l) && l[k] == id {
		return
	}
	l = append(l, 0)
	copy(l[k+1:], l[k:])
	l[k] = id
	d.lists[i] = l
}

// list returns element e's id list, or nil.
func (d *sizeDiv) list(e model.ElemID) []model.ObjectID {
	if i, ok := findElem(d.elems, e); ok {
		return d.lists[i]
	}
	return nil
}

// Delete locates the interval-store entries via the assignment, sets their
// dead bit and bumps the division's dead counter. The id-only inverted
// lists stay untouched: Query reports a survivor of their intersection
// only from a division without dead entries or after finding it live in
// the store, so a dead object's postings are unreachable.
func (ix *SizeIndex) Delete(o model.Object) {
	found := false
	hint.Assign(ix.dom, o.Interval, func(level int, j uint32, original, _ bool) {
		part := ix.levels[level].Get(j)
		if part == nil {
			return
		}
		div, key := &part.o, byStart
		if !original {
			div, key = &part.r, byEnd
		}
		if killSortedBy(div.ivals, o, key) {
			div.dead++
			found = true
		}
	})
	if found {
		for _, e := range o.Elems {
			if int(e) < len(ix.freqs) {
				ix.freqs[e]--
			}
		}
		ix.live--
	}
}

func killSortedBy(s []postings.Posting, o model.Object, key func(postings.Posting) model.Timestamp) bool {
	target := key(postings.Posting{ID: o.ID, Interval: o.Interval})
	i := sort.Search(len(s), func(i int) bool { return key(s[i]) >= target })
	for ; i < len(s) && key(s[i]) == target; i++ {
		if postings.LiveID(s[i].ID) == o.ID && !postings.IsDead(s[i].ID) {
			s[i].ID = postings.MarkDead(s[i].ID)
			return true
		}
	}
	return false
}

func (ix *SizeIndex) growTo(n int) {
	for len(ix.freqs) < n {
		ix.freqs = append(ix.freqs, 0)
	}
}

// Query implements Algorithm 6 with its two steps swapped: per relevant
// division, intersect the id-only postings lists of the query elements
// first — they are ascending, so nothing is sorted — and only then apply
// the temporal predicate to the survivors. A division that owes no
// comparison and holds no dead entry reports them without reading its
// interval store; otherwise the store is range-restricted through its
// beneficial sort and its entries are kept when their id is a survivor.
// Within a division results follow the lists' or the store's order.
//
// Membership in the survivors is a bit test, where Algorithm 6 merges a
// sorted candidate set: a division sets its survivors' bits in one pooled
// bitmap, tests each store entry, and clears the same bits again, so the
// bitmap is all-zero between divisions. That changes the speed, not the
// result.
func (ix *SizeIndex) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return ix.queryTemporalOnly(q)
	}
	// The intersection and the range restriction are fused per division,
	// so one intersect span covers the whole traversal.
	defer q.Trace.StartStage(obs.StageIntersect).End()
	plan := dict.PlanOrder(q.Elems, ix.freqs)
	bm := survivorPool.Get().(*postings.Bitmap)
	var out, scratch []model.ObjectID
	hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
		ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *sizePart) {
			ob := lv.Oblige(j)
			scratch, out = p.o.query(q.Interval, plan, false, ob.CheckStart, ob.CheckEnd, bm, scratch, out)
			if ob.First {
				scratch, out = p.r.query(q.Interval, plan, true, ob.CheckStart, false, bm, scratch, out)
			}
		})
	})
	putSurvivors(bm)
	return out
}

// survivorPool recycles the size variant's survivor bitmaps, one per
// running query. A pooled bitmap has no bit set, because every division
// clears the bits it set: a query grows the bitmap to its survivors'
// largest id but never pays a Reset over that universe.
var survivorPool = sync.Pool{New: func() any { return new(postings.Bitmap) }}

// putSurvivors returns a survivor bitmap to its pool; under -tags
// invariants it first asserts that no bit is set. It is not deferred: a
// query that panics drops its bitmap rather than pool one holding bits.
func putSurvivors(bm *postings.Bitmap) {
	if postings.InvariantsEnabled && bm.Count() != 0 {
		// lint:panic-ok invariants build: a dirty survivor bitmap must abort loudly
		panic("core: invariant violated: survivor bitmap pooled with bits set")
	}
	survivorPool.Put(bm)
}

// query answers the reduced query on one division (replica tells which
// sort its store has) and appends the result to dst. scratch backs the
// survivor set of plans longer than one element and is returned for reuse;
// a one-element plan reads the stored list in place. bm must be all-zero
// on entry, and is again on return.
func (d *sizeDiv) query(q model.Interval, plan []model.ElemID, replica, checkStart, checkEnd bool, bm *postings.Bitmap, scratch, dst []model.ObjectID) (_, _ []model.ObjectID) {
	surv := d.list(plan[0])
	for _, e := range plan[1:] {
		if len(surv) == 0 {
			break
		}
		scratch = postings.IntersectAnySorted(surv, d.list(e), scratch[:0])
		surv = scratch
	}
	switch {
	case len(surv) == 0:
		return scratch, dst
	case !checkStart && !checkEnd && d.dead == 0:
		return scratch, append(dst, surv...)
	}
	var s []postings.Posting
	if replica {
		// End-sorted: the restriction settles the start-side check.
		s, checkStart = replicasFrom(d.ivals, checkStart, q), false
	} else {
		s = originalsUpTo(d.ivals, checkEnd, q)
	}
	bm.Grow(surv[len(surv)-1] + 1)
	for _, id := range surv {
		bm.Set(id)
	}
	for i := range s {
		if checkStart && s[i].Interval.End < q.Start {
			continue
		}
		// A dead entry's id carries the dead bit, which lies past the
		// universe, so it is no survivor.
		if bm.Contains(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	for _, id := range surv {
		bm.Unset(id)
	}
	return scratch, dst
}

// originalsUpTo returns the prefix of a start-sorted originals store that
// can overlap q: everything when the end-side check is not owed, else the
// entries starting no later than q.End.
func originalsUpTo(s []postings.Posting, checkEnd bool, q model.Interval) []postings.Posting {
	if !checkEnd {
		return s
	}
	return s[:sort.Search(len(s), func(i int) bool { return s[i].Interval.Start > q.End })]
}

// replicasFrom returns the suffix of an end-sorted replicas store that can
// overlap q; replicas never need the end-side check.
func replicasFrom(s []postings.Posting, checkStart bool, q model.Interval) []postings.Posting {
	if !checkStart {
		return s
	}
	return s[sort.Search(len(s), func(i int) bool { return s[i].Interval.End >= q.Start }):]
}

// filterOriginals collects live ids from a start-sorted originals store
// under the given obligations (element-free queries only).
func filterOriginals(s []postings.Posting, checkStart, checkEnd bool, q model.Interval, dst []model.ObjectID) []model.ObjectID {
	s = originalsUpTo(s, checkEnd, q)
	for i := range s {
		if checkStart && s[i].Interval.End < q.Start {
			continue
		}
		if !postings.IsDead(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}

// filterReplicas collects live ids from an end-sorted replicas store
// (element-free queries only).
func filterReplicas(s []postings.Posting, checkStart bool, q model.Interval, dst []model.ObjectID) []model.ObjectID {
	s = replicasFrom(s, checkStart, q)
	for i := range s {
		if !postings.IsDead(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}

// queryTemporalOnly is the element-free path, under one postings span.
func (ix *SizeIndex) queryTemporalOnly(q model.Query) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	var out []model.ObjectID
	hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
		ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *sizePart) {
			ob := lv.Oblige(j)
			out = filterOriginals(p.o.ivals, ob.CheckStart, ob.CheckEnd, q.Interval, out)
			if ob.First {
				out = filterReplicas(p.r.ivals, ob.CheckStart, q.Interval, out)
			}
		})
	})
	return out
}

// SizeBytes estimates resident size: 16-byte interval entries once per
// division plus 4-byte id postings — the storage saving of Section 4.2 —
// and each division's dead counter.
func (ix *SizeIndex) SizeBytes() int64 {
	var total int64
	for l := range ix.levels {
		d := &ix.levels[l]
		total += int64(cap(d.Keys))*4 + int64(cap(d.Parts))*8
		for _, p := range d.Parts {
			total += divSize(&p.o) + divSize(&p.r) + 96
		}
	}
	return total + int64(len(ix.freqs))*8
}

func divSize(d *sizeDiv) int64 {
	// The trailing 8 is d.dead, padded to the struct's alignment.
	total := int64(cap(d.ivals))*16 + int64(cap(d.elems))*4 + int64(cap(d.lists))*24 + 8
	for i := range d.lists {
		total += int64(cap(d.lists[i])) * 4
	}
	return total
}

// EntryCount counts interval entries plus inverted postings.
func (ix *SizeIndex) EntryCount() int64 {
	var total int64
	for l := range ix.levels {
		for _, p := range ix.levels[l].Parts {
			total += int64(len(p.o.ivals) + len(p.r.ivals))
			for i := range p.o.lists {
				total += int64(len(p.o.lists[i]))
			}
			for i := range p.r.lists {
				total += int64(len(p.r.lists[i]))
			}
		}
	}
	return total
}
