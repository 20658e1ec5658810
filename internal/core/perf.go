package core

import (
	"fmt"
	"math"

	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/postings"
)

// perfPart is one partition of the performance variant: a temporal
// inverted file per division (I^O and I^R of Table 2).
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
// kernel (bulkBuild): every division's lists are tight, id-sorted runs into
// two exactly-sized arenas, one of ids and one of lifespans. Insert is the
// update path of Section 5.5 and works on the built index unchanged.
// Without a WithM option, m comes from the HINT cost model (Section 5.4
// reports the model works well here because of the time-first design).
func NewPerf(c *model.Collection, opts ...Option) *PerfIndex {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	ix := &PerfIndex{dom: resolveDomain(c, cfg), live: len(c.Objects)}
	ix.levels, ix.freqs = bulkBuild(ix.dom, c, ix.fillDense, func(b *builder, p *perfPart, replica bool, asgs []hint.Assignment) {
		d := &p.o
		if replica {
			d = &p.r
		}
		d.fill(b, asgs)
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
// an element it carries: bulkBuild runs them beside its serial pass 1.
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
// per element to the inverted file of every division it lands in (the
// construction process of Section 4.1).
func (ix *PerfIndex) Insert(o model.Object) {
	hint.Assign(ix.dom, o.Interval, func(level int, j uint32, original, _ bool) {
		part := ix.levels[level].GetOrCreate(j)
		div := &part.o
		if !original {
			div = &part.r
		}
		for _, e := range o.Elems {
			div.insert(e, o.ID, o.Interval)
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

// Delete locates the object's divisions via the assignment and tombstones
// its entry in each element list there. The dense bitmaps keep its bits: a
// tombstoned entry never becomes a candidate, so no probe reads them.
func (ix *PerfIndex) Delete(o model.Object) {
	found := false
	hint.Assign(ix.dom, o.Interval, func(level int, j uint32, original, _ bool) {
		part := ix.levels[level].Get(j)
		if part == nil {
			return
		}
		div := &part.o
		if !original {
			div = &part.r
		}
		for _, e := range o.Elems {
			if div.kill(e, o.ID) {
				found = true
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
// outputs disjoint, so no de-duplication step is needed.
func (ix *PerfIndex) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return ix.queryTemporalOnly(q)
	}
	// Algorithm 5 fuses the postings fetch and the intersection per
	// division, so one intersect span covers the whole traversal.
	defer q.Trace.StartStage(obs.StageIntersect).End()
	plan := dict.PlanOrder(q.Elems, ix.freqs)
	var buf [8]*postings.Bitmap
	probes := buf[:0]
	for _, e := range plan {
		probes = append(probes, ix.bitmap(e))
	}
	var out, scratch []model.ObjectID
	hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
		ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *perfPart) {
			ob := lv.Oblige(j)
			scratch, out = p.o.query(q.Interval, plan, probes, ob.CheckStart, ob.CheckEnd, scratch, out)
			if ob.First {
				// Replicas never need the o.t_st <= q.t_end check.
				scratch, out = p.r.query(q.Interval, plan, probes, ob.CheckStart, false, scratch, out)
			}
		})
	})
	return out
}

// queryTemporalOnly is the element-free path, under one postings span.
func (ix *PerfIndex) queryTemporalOnly(q model.Query) []model.ObjectID {
	defer q.Trace.StartStage(obs.StagePostings).End()
	var out []model.ObjectID
	hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
		ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *perfPart) {
			ob := lv.Oblige(j)
			out = p.o.allIDs(q.Interval, ob.CheckStart, ob.CheckEnd, out)
			if ob.First {
				out = p.r.allIDs(q.Interval, ob.CheckStart, false, out)
			}
		})
	})
	return out
}

// SizeBytes estimates resident size across all division inverted files —
// the redundancy Section 4.2 motivates the size variant with (each
// object's interval is stored once per element per division) — and the
// dense elements' bitmaps with their 4-byte keys and slice headers.
func (ix *PerfIndex) SizeBytes() int64 {
	var total int64
	for l := range ix.levels {
		d := &ix.levels[l]
		total += int64(cap(d.Keys))*4 + int64(cap(d.Parts))*8
		for _, p := range d.Parts {
			total += p.o.sizeBytes() + p.r.sizeBytes()
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
			// lint:panic-ok invariants build: a missing bit drops answers silently
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
			for _, d := range []*divIF{&p.o, &p.r} {
				for i, r := range d.runs {
					for k := r.off; k < r.off+r.n; k++ {
						if !postings.IsTombstone(d.spans[k]) {
							check(d.elems[i], d.ids[k])
						}
					}
				}
			}
		}
	}
}
