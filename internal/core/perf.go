package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/postings"
)

// perfPart is one partition of the performance variant: a temporal
// inverted file per division (I^O and I^R of Table 2), each split into
// HINT's in and aft parts.
type perfPart struct {
	o divIF
	r divIF
}

// PerfIndex is the performance-focused irHINT variant (Section 4.1 /
// Algorithm 5).
//
// Beyond the paper, each dense element also carries a bitmap over the ids
// [0, universe): dense lists those elements ascending, and bitmaps holds
// their bitmaps in the same order (see fillDense).
type PerfIndex struct {
	dom      domain.Domain
	levels   []hint.Directory[perfPart]
	freqs    []int
	live     int
	dense    []model.ElemID
	bitmaps  []postings.Bitmap
	universe int
}

// NewPerf builds the performance irHINT over a collection with the bulk
// kernel (bulkBuild): every division's lists are tight runs, each part
// id-sorted, into an exactly-sized id column and one exactly-sized arena
// of the endpoints the parts store (divIF.fill). Insert is the
// update path of Section 5.5 and works on the built index unchanged.
// Without a WithM option, m comes from the HINT cost model (Section 5.4
// reports the model works well here because of the time-first design).
func NewPerf(c *model.Collection, opts ...Option) *PerfIndex {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	ix := &PerfIndex{live: len(c.Objects)}
	var objs []model.Object
	ix.dom, objs, ix.freqs = prefix(c, cfg, c)
	ix.levels = bulkBuild(&ix.dom, objs, ix.freqs, ix.fillDense, newPerfBuilder, func(b *perfBuilder, p *perfPart, replica bool, asgs []hint.Assignment) {
		d := &p.o
		if replica {
			d = &p.r
		}
		level, j := asgs[0].Partition()
		d.fill(b, asgs, level, j, !replica)
	})
	ix.assertDense("NewPerf", nil)
	return ix
}

// fillChunk is how many objects, give or take a 64-id word, one job of the
// dense fill sets the bits of.
const fillChunk = 1 << 13

// fillDense gives every dense element a bitmap over the ids [0, universe),
// universe one past the largest id of objs (ascending by id); freqs counts
// the objects carrying each element. An element is dense when its bitmap
// is no larger than its ids would be as a 4-byte array,
// 8·⌈universe/64⌉ ≤ 4·freq. Density is fixed here: Insert keeps the dense
// elements' bitmaps current but makes no element dense.
//
// It returns the jobs that set the bit of every object in every bitmap of
// an element it carries: bulkBuild runs them beside pass 1.
// Each job covers whole 64-id words, so jobs write disjoint words. The
// fill has no dense-or-sparse branch: a sparse element's bits go to a
// spare bitmap that is then dropped.
func (ix *PerfIndex) fillDense(objs []model.Object, freqs []int) (int, func(i int)) {
	if len(objs) == 0 {
		return 0, nil
	}
	ix.universe = int(objs[len(objs)-1].ID) + 1
	words := (ix.universe + 63) / 64
	n := 0
	for _, f := range freqs {
		if 8*words <= 4*f {
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	ix.dense, ix.bitmaps = make([]model.ElemID, 0, n), make([]postings.Bitmap, n)
	for e, f := range freqs {
		if 8*words <= 4*f {
			ix.dense = append(ix.dense, model.ElemID(e))
			ix.bitmaps[len(ix.dense)-1].Reset(ix.bitmapUniverse())
		}
	}
	// to[e] is dense element e's bitmap, else the spare. It stops at the
	// last dense element and every larger element shares its final slot,
	// so the table stays in cache however large the dictionary.
	spare := new(postings.Bitmap)
	spare.Reset(ix.bitmapUniverse())
	to := make([]*postings.Bitmap, int(ix.dense[n-1])+2)
	for e := range to {
		to[e] = spare
	}
	for k, e := range ix.dense {
		to[e] = &ix.bitmaps[k]
	}
	last := model.ElemID(len(to) - 1)
	// cut moves an object index forward to the first object of a word.
	cut := func(k int) int {
		for k = min(k, len(objs)); k > 0 && k < len(objs) && objs[k].ID>>6 == objs[k-1].ID>>6; k++ {
		}
		return k
	}
	return (len(objs) + fillChunk - 1) / fillChunk, func(i int) {
		for _, o := range objs[cut(i*fillChunk):cut((i+1)*fillChunk)] {
			for _, e := range o.Elems {
				to[min(e, last)].Set(o.ID)
			}
		}
	}
}

// bitmapUniverse is the universe the dense bitmaps are sized to. Clamped,
// it still reaches the largest id: a bitmap sizes itself in whole words.
func (ix *PerfIndex) bitmapUniverse() model.ObjectID {
	return model.ObjectID(min(ix.universe, math.MaxUint32))
}

// bitmap returns dense element e's bitmap, or nil if e is sparse.
func (ix *PerfIndex) bitmap(e model.ElemID) *postings.Bitmap {
	if i, ok := findElem(ix.dense, e); ok {
		return &ix.bitmaps[i]
	}
	return nil
}

// Domain exposes the discretization (testing and tooling hook).
func (ix *PerfIndex) Domain() domain.Domain { return ix.dom }

// M returns the hierarchy bits.
func (ix *PerfIndex) M() int { return ix.dom.M }

// Len returns the number of live objects.
func (ix *PerfIndex) Len() int { return ix.live }

// Insert routes the object through the HINT assignment and adds one entry
// per element to the in or aft part, as the assignment's endsInside says,
// of the inverted file of every division it lands in (the construction
// process of Section 4.1).
func (ix *PerfIndex) Insert(o model.Object) {
	hint.Assign(ix.dom, o.Interval, func(level int, j uint32, original, endsInside bool) {
		part := ix.levels[level].GetOrCreate(j)
		div := &part.o
		if !original {
			div = &part.r
		}
		for _, e := range o.Elems {
			i := div.insert(e, o.ID, o.Interval, original, !endsInside)
			if postings.InvariantsEnabled {
				div.assertDivision("insert", i, original, &home{dom: ix.dom, level: level, j: j, obj: known(o, true)})
			}
		}
	})
	if len(ix.bitmaps) > 0 && int(o.ID) >= ix.universe {
		ix.universe = max(int(o.ID)+1, 2*ix.universe)
		for i := range ix.bitmaps {
			ix.bitmaps[i].Grow(ix.bitmapUniverse())
		}
	}
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		ix.freqs[e]++
		if bm := ix.bitmap(e); bm != nil {
			bm.Set(o.ID)
		}
	}
	ix.live++
	ix.assertDense("Insert", &o)
}

// Delete locates the object's divisions and parts via the assignment, and
// tombstones its entry in each element list there, or removes it from an
// R_aft part. The dense bitmaps keep its bits: a deleted entry never
// becomes a candidate, so no probe reads them.
func (ix *PerfIndex) Delete(o model.Object) {
	found := false
	hint.Assign(ix.dom, o.Interval, func(level int, j uint32, original, endsInside bool) {
		part := ix.levels[level].Get(j)
		if part == nil {
			return
		}
		div := &part.o
		if !original {
			div = &part.r
		}
		for _, e := range o.Elems {
			if i := div.kill(e, o.ID, original, !endsInside); i >= 0 {
				found = true
				if postings.InvariantsEnabled {
					div.assertDivision("kill", i, original, &home{dom: ix.dom, level: level, j: j, obj: known(o, false)})
				}
			}
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

func (ix *PerfIndex) growTo(n int) {
	for len(ix.freqs) < n {
		ix.freqs = append(ix.freqs, 0)
	}
}

// Query implements Algorithm 5: bottom-up traversal with the temporal
// flags; each relevant division answers a reduced time-travel IR query on
// its inverted file. HINT's duplicate-avoidance rule makes the division
// outputs disjoint, so no de-duplication step is needed. The divisions
// answer into pooled buffers, and the result is one exactly-sized copy:
// a query leaves no garbage but its answer.
func (ix *PerfIndex) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return nil
	}
	// Algorithm 5 fuses the postings fetch and the intersection per
	// division, so one intersect span covers the whole traversal.
	defer q.Trace.StartStage(obs.StageIntersect).End()
	var planBuf [8]model.ElemID
	plan := dict.PlanOrder(planBuf[:0], q.Elems, ix.freqs)
	var buf [8]*postings.Bitmap
	probes := buf[:0]
	for _, e := range plan {
		probes = append(probes, ix.bitmap(e))
	}
	var atBuf [8]int32
	at := atBuf[:0]
	for range plan {
		at = append(at, runUnknown)
	}
	bufs := queryPool.Get().(*queryBufs)
	scratch, out := bufs.scratch, bufs.out[:0]
	hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
		ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *perfPart) {
			ob := lv.Oblige(j)
			scratch, out = p.o.query(q.Interval, plan, probes, at, true, ob.CheckStart, ob.CheckEnd, scratch, out)
			if ob.First {
				// Replicas never need the o.t_st <= q.t_end check.
				scratch, out = p.r.query(q.Interval, plan, probes, at, false, ob.CheckStart, false, scratch, out)
			}
		})
	})
	var res []model.ObjectID
	if len(out) > 0 {
		res = make([]model.ObjectID, len(out))
		copy(res, out)
	}
	if cap(scratch)+cap(out) <= maxPooledIDs {
		bufs.scratch, bufs.out = scratch, out
		queryPool.Put(bufs)
	}
	return res
}

// queryBufs is PerfIndex.Query's scratch: the candidate buffer its
// divisions share and the answers gathered so far.
type queryBufs struct{ scratch, out []model.ObjectID }

var queryPool = sync.Pool{New: func() any { return new(queryBufs) }}

// maxPooledIDs bounds the buffers a query returns to the pool, so that
// one query with a huge answer does not pin its buffers afterwards.
const maxPooledIDs = 1 << 16

// SizeBytes estimates resident size across all division inverted files —
// the redundancy Section 4.2 motivates the size variant with (each
// object's compared endpoints are stored once per element per division,
// divIF.sizeBytes) — and the dense elements' bitmaps with their 4-byte
// keys and slice headers.
func (ix *PerfIndex) SizeBytes() int64 {
	var total int64
	for l := range ix.levels {
		d := &ix.levels[l]
		total += int64(cap(d.Keys))*4 + int64(cap(d.Parts))*8
		for _, p := range d.Parts {
			total += p.o.sizeBytes(true) + p.r.sizeBytes(false)
		}
	}
	total += int64(cap(ix.dense))*4 + int64(cap(ix.bitmaps))*24
	for i := range ix.bitmaps {
		total += ix.bitmaps[i].SizeBytes()
	}
	return total + int64(len(ix.freqs))*8
}

// EntryCount counts stored postings entries across all divisions.
func (ix *PerfIndex) EntryCount() int64 {
	var total int64
	for l := range ix.levels {
		for _, p := range ix.levels[l].Parts {
			total += p.o.entryCount() + p.r.entryCount()
		}
	}
	return total
}

// assertDense panics, in an invariants build, unless every live entry of a
// dense element has its bit set: across the index when o is nil (after the
// fill), else the entries that inserting o added.
func (ix *PerfIndex) assertDense(context string, o *model.Object) {
	if !postings.InvariantsEnabled {
		return
	}
	check := func(e model.ElemID, id model.ObjectID) {
		if bm := ix.bitmap(e); bm != nil && !bm.Contains(id) {
			// invariants build: a missing bit drops answers silently
			panic(fmt.Sprintf("core: invariant violated in PerfIndex.%s: object %d carries dense element %d, bit clear", context, id, e))
		}
	}
	if o != nil {
		for _, e := range o.Elems {
			check(e, o.ID)
		}
		return
	}
	for l := range ix.levels {
		for _, p := range ix.levels[l].Parts {
			for _, div := range [2]struct {
				d    *divIF
				orig bool
			}{{&p.o, true}, {&p.r, false}} {
				for i, e := range div.d.elems {
					div.d.each(i, div.orig, func(id model.ObjectID, live bool) {
						if live {
							check(e, id)
						}
					})
				}
			}
		}
	}
}

// known returns a home.obj that knows the one object o, live or deleted.
func known(o model.Object, live bool) func(model.ObjectID) (model.Interval, bool, bool) {
	return func(id model.ObjectID) (model.Interval, bool, bool) {
		return o.Interval, live, id == o.ID
	}
}
