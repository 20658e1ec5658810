package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bruteforce"
	"repro/internal/dict"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// Property: for any m and any random workload shape, both irHINT variants
// agree with the brute-force oracle.
func TestVariantsQuick(t *testing.T) {
	f := func(mRaw uint8, seed int64, q0, q1 uint16, e0, e1 uint8) bool {
		m := int(mRaw%9) + 1
		cfg := testutil.CollectionConfig{N: 150, DomainLo: 0, DomainHi: 4000, Dict: 20, MaxDesc: 5, Seed: seed}
		c := testutil.RandomCollection(cfg)
		oracle := bruteforce.New(c)
		perf := NewPerf(c, WithM(m))
		size := NewSize(c, WithM(m))
		q := model.Query{
			Interval: model.Canon(model.Timestamp(q0)%4001, model.Timestamp(q1)%4001),
			Elems:    model.NormalizeElems([]model.ElemID{model.ElemID(e0) % 20, model.ElemID(e1) % 20}),
		}
		want := testutil.Canonical(oracle.Query(q))
		return model.EqualIDs(testutil.Canonical(perf.Query(q)), want) &&
			model.EqualIDs(testutil.Canonical(size.Query(q)), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: findElem agrees with a linear scan for any sorted directory.
func TestFindElemQuick(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		elems := make([]model.ElemID, 0, len(raw))
		for _, v := range raw {
			elems = append(elems, model.ElemID(v))
		}
		elems = model.NormalizeElems(elems)
		pos, found := findElem(elems, model.ElemID(probe))
		wantFound := false
		wantPos := len(elems)
		for i, e := range elems {
			if e >= model.ElemID(probe) {
				wantPos = i
				wantFound = e == model.ElemID(probe)
				break
			}
		}
		return pos == wantPos && found == wantFound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the perf variant's entry count equals description postings
// times the interval's partition count — i.e. the redundancy the size
// variant removes is exactly |d| per division.
func TestEntryCountRelationship(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		cfg := testutil.CollectionConfig{
			N: 100, DomainLo: 0, DomainHi: 2000, Dict: 15,
			MaxDesc: 1 + rng.Intn(6), Seed: int64(trial),
		}
		c := testutil.RandomCollection(cfg)
		perf := NewPerf(c, WithM(5))
		size := NewSize(c, WithM(5))
		// size stores per division: 1 interval + |d| ids; perf stores |d|
		// postings. With every object having |d| >= 1, perf >= size's
		// interval entries and the inverted id counts match perf exactly.
		var sizeIvals, sizeIDs int64
		for l := range size.levels {
			for _, p := range size.levels[l].Parts {
				sizeIvals += int64(len(p.o.ivals) + len(p.r.ivals))
				for i := range p.o.lists {
					sizeIDs += int64(len(p.o.lists[i]))
				}
				for i := range p.r.lists {
					sizeIDs += int64(len(p.r.lists[i]))
				}
			}
		}
		if perf.EntryCount() != sizeIDs {
			t.Fatalf("trial %d: perf entries %d != size inverted ids %d",
				trial, perf.EntryCount(), sizeIDs)
		}
		if size.EntryCount() != sizeIvals+sizeIDs {
			t.Fatalf("trial %d: size EntryCount inconsistent", trial)
		}
	}
}

// checkDeletesInComparisonFreeDivisions is the shared body of the
// deletes-in-comparison-free-divisions properties: over random collections
// with wide intervals and a quarter of the objects deleted, Query ≡ the
// oracle — also for queries whose ends lie at the limits of the timestamp
// range — and the run must have met deleted ids among the list survivors
// of comparison-free divisions, originals and replicas, or the property is
// vacuous. deadSurvivors counts, for one query, the deleted ids met there
// (it fails the test itself if a division hides them from its dead
// counter).
func checkDeletesInComparisonFreeDivisions[I model.Querier](t *testing.T, build func(c *model.Collection, m int) I, del func(I, model.Object), deadSurvivors func(ix I, q model.Query, dead map[model.ObjectID]bool) (freeO, freeR int)) {
	t.Helper()
	var freeO, freeR int // deleted survivors met in comparison-free originals / replicas divisions
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testutil.CollectionConfig{N: 300, DomainLo: 0, DomainHi: 4000, Dict: 10, MaxDesc: 4, Seed: seed}
		c := &model.Collection{DictSize: cfg.Dict}
		for _, o := range testutil.RandomCollection(cfg).Objects {
			if o.ID%3 == 0 { // wide: high in the hierarchy, or replicated across many partitions
				o.Interval = model.NewInterval(rng.Int63n(1500), 2500+rng.Int63n(1501))
			}
			c.AppendObject(o.Interval, o.Elems)
		}
		ix := build(c, 1+int(seed%6))
		oracle := bruteforce.New(c)
		dead := map[model.ObjectID]bool{}
		for _, i := range rng.Perm(len(c.Objects))[:len(c.Objects)/4] {
			del(ix, c.Objects[i])
			oracle.Delete(c.Objects[i].ID)
			dead[c.Objects[i].ID] = true
		}
		queries := testutil.RandomQueries(cfg, 80, seed+100)
		for _, iv := range []model.Interval{{Start: math.MinInt64, End: 2000}, {Start: 2000, End: math.MaxInt64}, {Start: math.MinInt64, End: math.MaxInt64}} {
			queries = append(queries, model.Query{Interval: iv, Elems: []model.ElemID{0}}, model.Query{Interval: iv, Elems: []model.ElemID{0, 1}})
		}
		for qi, q := range queries {
			want := testutil.Canonical(oracle.Query(q))
			if got := testutil.Canonical(ix.Query(q)); !model.EqualIDs(got, want) {
				t.Fatalf("seed %d query %d (%v elems=%v): Query %v, want %v", seed, qi, q.Interval, q.Elems, got, want)
			}
			o, r := deadSurvivors(ix, q, dead)
			freeO, freeR = freeO+o, freeR+r
		}
	}
	if freeO == 0 || freeR == 0 {
		t.Fatalf("vacuous: deleted survivors in comparison-free divisions: originals %d, replicas %d", freeO, freeR)
	}
	t.Logf("deleted survivors withheld from comparison-free divisions: originals %d, replicas %d", freeO, freeR)
}

// countDead counts the ids of surv in dead, failing the test if there are
// some and the division's dead counter is 0.
func countDead(t *testing.T, surv []model.ObjectID, dead map[model.ObjectID]bool, counter int32) int {
	t.Helper()
	n := 0
	for _, id := range surv {
		if dead[id] {
			n++
		}
	}
	if n > 0 && counter == 0 {
		t.Fatalf("%d deleted ids in a division's lists, dead counter 0", n)
	}
	return n
}

// Property: index-level Deletes stay exact in the size variant even where
// Query never reads the interval store, whose dead counter has to announce
// every deleted id among a comparison-free division's list survivors.
func TestSizeDeletesInComparisonFreeDivisions(t *testing.T) {
	survivors := func(d *sizeDiv, plan []model.ElemID) []model.ObjectID {
		surv := d.list(plan[0])
		for _, e := range plan[1:] {
			surv = postings.IntersectSortedIDs(surv, d.list(e), nil)
		}
		return surv
	}
	checkDeletesInComparisonFreeDivisions(t, func(c *model.Collection, m int) *SizeIndex { return NewSize(c, WithM(m)) }, (*SizeIndex).Delete,
		func(ix *SizeIndex, q model.Query, dead map[model.ObjectID]bool) (freeO, freeR int) {
			plan := dict.PlanOrder(q.Elems, ix.freqs)
			hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
				ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *sizePart) {
					ob := lv.Oblige(j)
					if !ob.CheckStart && !ob.CheckEnd {
						freeO += countDead(t, survivors(&p.o, plan), dead, p.o.dead)
					}
					if ob.First && !ob.CheckStart {
						freeR += countDead(t, survivors(&p.r, plan), dead, p.r.dead)
					}
				})
			})
			return freeO, freeR
		})
}

// Property: the same for the performance variant, whose comparison-free
// divisions report a first list as its id run unless the dead counter
// says an entry of the division is tombstoned. A dense later element
// filters by its bitmap, which keeps a deleted object's bits, so the run
// must also meet deleted ids that passed a bit test there.
func TestPerfDeletesInComparisonFreeDivisions(t *testing.T) {
	var probed int // deleted survivors that passed a bit test
	survivors := func(ix *PerfIndex, d *divIF, plan []model.ElemID, dead map[model.ObjectID]bool) []model.ObjectID {
		surv := d.idRun(plan[0])
		for _, e := range plan[1:] {
			if bm := ix.bitmap(e); bm != nil {
				surv = slices.DeleteFunc(slices.Clone(surv), func(id model.ObjectID) bool { return !bm.Contains(id) })
				for _, id := range surv {
					if dead[id] {
						probed++
					}
				}
			} else {
				surv = postings.IntersectSortedIDs(surv, d.idRun(e), nil)
			}
		}
		return surv
	}
	checkDeletesInComparisonFreeDivisions(t, func(c *model.Collection, m int) *PerfIndex { return NewPerf(c, WithM(m)) }, (*PerfIndex).Delete,
		func(ix *PerfIndex, q model.Query, dead map[model.ObjectID]bool) (freeO, freeR int) {
			plan := dict.PlanOrder(q.Elems, ix.freqs)
			hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
				ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *perfPart) {
					ob := lv.Oblige(j)
					if !ob.CheckStart && !ob.CheckEnd {
						freeO += countDead(t, survivors(ix, &p.o, plan, dead), dead, p.o.dead)
					}
					if ob.First && !ob.CheckStart {
						freeR += countDead(t, survivors(ix, &p.r, plan, dead), dead, p.r.dead)
					}
				})
			})
			return freeO, freeR
		})
	if probed == 0 {
		t.Fatal("vacuous: no deleted survivor passed a dense element's bit test")
	}
	t.Logf("deleted survivors past a bit test: %d", probed)
}
