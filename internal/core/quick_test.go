package core

import (
	"math/rand"
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
			for _, p := range size.levels[l].parts {
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

// Property: index-level Deletes stay exact in the size variant even where
// Query never reads the interval store. Over random collections with wide
// intervals and a quarter of the objects deleted, Query ≡ the oracle; and
// the run must have met deleted ids among the list survivors of
// comparison-free divisions — originals and replicas — each of which the
// division's dead counter has to announce, or the property is vacuous.
func TestSizeDeletesInComparisonFreeDivisions(t *testing.T) {
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
		ix := NewSize(c, WithM(1+int(seed%6)))
		oracle := bruteforce.New(c)
		dead := map[model.ObjectID]bool{}
		for _, i := range rng.Perm(len(c.Objects))[:len(c.Objects)/4] {
			ix.Delete(c.Objects[i])
			oracle.Delete(c.Objects[i].ID)
			dead[c.Objects[i].ID] = true
		}
		deadSurvivors := func(d *sizeDiv, plan []model.ElemID) int {
			surv := d.list(plan[0])
			for _, e := range plan[1:] {
				surv = postings.IntersectSortedIDs(surv, d.list(e), nil)
			}
			n := 0
			for _, id := range surv {
				if dead[id] {
					n++
				}
			}
			if n > 0 && d.dead == 0 {
				t.Fatalf("seed %d: %d deleted ids in a division's lists, dead counter 0", seed, n)
			}
			return n
		}
		for qi, q := range testutil.RandomQueries(cfg, 80, seed+100) {
			want := testutil.Canonical(oracle.Query(q))
			if got := testutil.Canonical(ix.Query(q)); !model.EqualIDs(got, want) {
				t.Fatalf("seed %d query %d (%v elems=%v): Query %v, want %v", seed, qi, q.Interval, q.Elems, got, want)
			}
			plan := dict.PlanOrder(q.Elems, ix.freqs)
			hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
				ix.levels[lv.Level].forRange(lv.F, lv.L, func(j uint32, p *sizePart) {
					ob := lv.Oblige(j)
					if !ob.CheckStart && !ob.CheckEnd {
						freeO += deadSurvivors(&p.o, plan)
					}
					if ob.First && !ob.CheckStart {
						freeR += deadSurvivors(&p.r, plan)
					}
				})
			})
		}
	}
	if freeO == 0 || freeR == 0 {
		t.Fatalf("vacuous: deleted survivors in comparison-free divisions: originals %d, replicas %d", freeO, freeR)
	}
	t.Logf("deleted survivors withheld from comparison-free divisions: originals %d, replicas %d", freeO, freeR)
}
