package core

import (
	"repro/internal/dict"
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/obs"
)

// perfPart is one partition of the performance variant: a temporal
// inverted file per division (I^O and I^R of Table 2).
type perfPart struct {
	o divIF
	r divIF
}

// PerfIndex is the performance-focused irHINT variant (Section 4.1 /
// Algorithm 5).
type PerfIndex struct {
	dom    domain.Domain
	levels []directory[perfPart]
	freqs  []int
	live   int
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
	ix.levels, ix.freqs = bulkBuild(ix.dom, c, func(b *builder, p *perfPart, replica bool, asgs []hint.Assignment) {
		d := &p.o
		if replica {
			d = &p.r
		}
		d.fill(b, asgs)
	})
	return ix
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
		part := ix.levels[level].getOrCreate(j)
		div := &part.o
		if !original {
			div = &part.r
		}
		for _, e := range o.Elems {
			div.insert(e, o.ID, o.Interval)
		}
	})
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		ix.freqs[e]++
	}
	ix.live++
}

// Delete locates the object's divisions via the assignment and tombstones
// its entry in each element list there.
func (ix *PerfIndex) Delete(o model.Object) {
	found := false
	hint.Assign(ix.dom, o.Interval, func(level int, j uint32, original, _ bool) {
		part := ix.levels[level].get(j)
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
	var out, scratch []model.ObjectID
	hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
		ix.levels[lv.Level].forRange(lv.F, lv.L, func(j uint32, p *perfPart) {
			ob := lv.Oblige(j)
			scratch, out = p.o.query(q.Interval, plan, ob.CheckStart, ob.CheckEnd, scratch, out)
			if ob.First {
				// Replicas never need the o.t_st <= q.t_end check.
				scratch, out = p.r.query(q.Interval, plan, ob.CheckStart, false, scratch, out)
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
		ix.levels[lv.Level].forRange(lv.F, lv.L, func(j uint32, p *perfPart) {
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
// object's interval is stored once per element per division).
func (ix *PerfIndex) SizeBytes() int64 {
	var total int64
	for l := range ix.levels {
		d := &ix.levels[l]
		total += int64(cap(d.keys))*4 + int64(cap(d.parts))*8
		for _, p := range d.parts {
			total += p.o.sizeBytes() + p.r.sizeBytes()
		}
	}
	return total + int64(len(ix.freqs))*8
}

// EntryCount counts stored postings entries across all divisions.
func (ix *PerfIndex) EntryCount() int64 {
	var total int64
	for l := range ix.levels {
		for _, p := range ix.levels[l].parts {
			total += p.o.entryCount() + p.r.entryCount()
		}
	}
	return total
}
