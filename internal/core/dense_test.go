package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dict"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/testutil"
)

// TestDenseThreshold: over 640 ids a bitmap is 10 words, 80 B, so an
// element is dense from 20 objects (80 B of ids) and sparse at 19.
func TestDenseThreshold(t *testing.T) {
	c := &model.Collection{DictSize: 3}
	for i := range 640 {
		elems := []model.ElemID{0}
		if i%32 == 0 {
			elems = append(elems, 1)
			if i < 608 {
				elems = append(elems, 2)
			}
		}
		c.AppendObject(model.NewInterval(int64(i), int64(i+40)), elems)
	}
	ix := NewPerf(c, WithM(5))
	if ix.freqs[1] != 20 || ix.freqs[2] != 19 {
		t.Fatalf("frequencies %v, want 20 and 19 for elements 1 and 2", ix.freqs)
	}
	for e, want := range map[model.ElemID]bool{0: true, 1: true, 2: false} {
		if got := ix.bitmap(e) != nil; got != want {
			t.Errorf("element %d (%d objects): dense %v, want %v", e, ix.freqs[e], got, want)
		}
	}
	var queries []model.Query
	for _, iv := range []model.Interval{model.NewInterval(0, 700), model.NewInterval(100, 130), model.NewInterval(300, 300)} {
		for _, elems := range [][]model.ElemID{{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}} {
			queries = append(queries, model.Query{Interval: iv, Elems: elems})
		}
	}
	testutil.CheckAgainstOracle(t, "perf/threshold", ix, c, queries)
}

// TestDenseProbeLeavesArenaUnchanged: where a division's first list is its
// id run, read in place (no check owed, no tombstones), a dense later
// element filters the candidates without writing the index's arenas. The
// run must meet such divisions where the probe drops a candidate, or a
// filter that compacts in place would go unseen.
func TestDenseProbeLeavesArenaUnchanged(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 2000, DomainLo: 0, DomainHi: 1 << 16, Dict: 200, MaxDesc: 6, Seed: 5}
	c := testutil.RandomCollection(cfg)
	ix := NewPerf(c, WithM(6))
	type arena struct {
		ids   []model.ObjectID
		spans []model.Interval
	}
	var divs []*divIF
	var before []arena
	for l := range ix.levels {
		for _, p := range ix.levels[l].Parts {
			for _, d := range []*divIF{&p.o, &p.r} {
				divs = append(divs, d)
				before = append(before, arena{slices.Clone(d.ids), slices.Clone(d.spans)})
			}
		}
	}
	queries := testutil.RandomQueries(cfg, 300, 6)
	for _, e := range []model.ElemID{0, 1, 2} {
		queries = append(queries, model.Query{Interval: model.NewInterval(0, 1<<16), Elems: []model.ElemID{e, 150, 199}})
	}
	dropped := 0 // candidates a probe dropped from an id run read in place
	inPlace := func(d *divIF, plan []model.ElemID) {
		bm := ix.bitmap(plan[min(1, len(plan)-1)])
		if len(plan) < 2 || bm == nil || d.dead > 0 {
			return // no probe, or a merge or the tombstone filter comes first
		}
		for _, id := range d.idRun(plan[0]) {
			if !bm.Contains(id) {
				dropped++
			}
		}
	}
	for _, q := range queries {
		plan := dict.PlanOrder(q.Elems, ix.freqs)
		hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
			ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *perfPart) {
				ob := lv.Oblige(j)
				if !ob.CheckStart && !ob.CheckEnd {
					inPlace(&p.o, plan)
				}
				if ob.First && !ob.CheckStart {
					inPlace(&p.r, plan)
				}
			})
		})
	}
	testutil.CheckAgainstOracle(t, "perf/in-place", ix, c, queries)
	for i, d := range divs {
		if !slices.Equal(d.ids, before[i].ids) || !slices.Equal(d.spans, before[i].spans) {
			t.Fatalf("division %d: a query wrote the index's arenas", i)
		}
	}
	if dropped == 0 {
		t.Fatal("vacuous: no probe dropped a candidate from an id run read in place")
	}
	t.Logf("%d candidates dropped by probes from id runs read in place", dropped)
}

// TestDenseInsertPastUniverse: inserts whose ids lie beyond the dense
// bitmaps' universe, some several words past it, widen every bitmap and
// set their bits; queries stay exact, before and after deleting some of
// them, and SizeBytes counts the widened bitmaps.
func TestDenseInsertPastUniverse(t *testing.T) {
	cfg := testutil.DefaultConfig(21)
	c := testutil.RandomCollection(cfg)
	ix := NewPerf(c, WithM(5))
	if len(ix.dense) == 0 {
		t.Fatal("vacuous: no dense element")
	}
	all := &model.Collection{DictSize: c.DictSize, Objects: slices.Clone(c.Objects)}
	var extra []model.Object
	for i := 0; i < len(c.Objects); i += 7 {
		o := c.Objects[i]
		o.ID = model.ObjectID(len(c.Objects) + 3*len(extra)*len(extra))
		extra = append(extra, o)
		all.Objects = append(all.Objects, o)
		ix.Insert(o)
	}
	last := extra[len(extra)-1].ID
	if ix.universe <= int(last) {
		t.Fatalf("universe %d, largest id %d", ix.universe, last)
	}
	for i, e := range ix.dense {
		if got, want := ix.bitmaps[i].SizeBytes(), int64(ix.universe+63)/64*8; got < want {
			t.Fatalf("dense element %d: bitmap %d B over a universe of %d ids", e, got, ix.universe)
		}
		for _, o := range extra {
			if _, carries := slices.BinarySearch(o.Elems, e); carries != ix.bitmaps[i].Contains(o.ID) {
				t.Fatalf("dense element %d: bit of inserted object %d is %v", e, o.ID, !carries)
			}
		}
	}
	queries := testutil.RandomQueries(cfg, 200, 22)
	testutil.CheckAgainstOracle(t, "perf/inserted", ix, all, queries)

	oracle := bruteforce.New(all)
	for _, i := range rand.New(rand.NewSource(23)).Perm(len(all.Objects))[:len(all.Objects)/3] {
		ix.Delete(all.Objects[i])
		oracle.Delete(all.Objects[i].ID)
	}
	for qi, q := range queries {
		if got, want := testutil.Canonical(ix.Query(q)), testutil.Canonical(oracle.Query(q)); !model.EqualIDs(got, want) {
			t.Fatalf("query %d (%v elems=%v) after deletes: %v, want %v", qi, q.Interval, q.Elems, got, want)
		}
	}
}

// TestDenseFillParallel: a corpus of several fill jobs, built on one
// worker and on four, where jobs run side by side and beside pass 1. The
// ids start at 10, so a job's first object shares a 64-id word with the
// one before it unless the job boundary moves. Both builds must hold the
// same bitmaps, each bit set exactly where the object carries the element.
func TestDenseFillParallel(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 3*fillChunk + 100, DomainLo: 0, DomainHi: 1 << 20, Dict: 40, MaxDesc: 3, Seed: 8}
	c := testutil.RandomCollection(cfg)
	for i := range c.Objects {
		c.Objects[i].ID += 10
	}
	one, four := testutil.SerialAndParallel(t, func() *PerfIndex { return NewPerf(c, WithM(6)) })
	if len(four.dense) == 0 || !reflect.DeepEqual(one.dense, four.dense) || !reflect.DeepEqual(one.bitmaps, four.bitmaps) {
		t.Fatalf("dense elements %v on one worker, %v on four, or their bitmaps differ", one.dense, four.dense)
	}
	for k, e := range four.dense {
		for _, o := range c.Objects {
			if _, carries := slices.BinarySearch(o.Elems, e); carries != four.bitmaps[k].Contains(o.ID) {
				t.Fatalf("dense element %d, object %d: bit %v, carries %v", e, o.ID, !carries, carries)
			}
		}
	}
}
