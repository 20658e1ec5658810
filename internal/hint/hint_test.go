package hint

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

func iv(s, e model.Timestamp) model.Interval { return model.Interval{Start: s, End: e} }

// naiveOverlap is the oracle for range queries.
func naiveOverlap(entries []postings.Posting, q model.Interval) []model.ObjectID {
	var out []model.ObjectID
	for _, p := range entries {
		if p.Interval.Overlaps(q) {
			out = append(out, p.ID)
		}
	}
	model.SortIDs(out)
	return out
}

func canon(ids []model.ObjectID) []model.ObjectID {
	out := append([]model.ObjectID(nil), ids...)
	model.SortIDs(out)
	return model.DedupIDs(out)
}

func randomEntries(rng *rand.Rand, n int, lo, hi model.Timestamp) []postings.Posting {
	span := int64(hi - lo + 1)
	entries := make([]postings.Posting, n)
	for i := range entries {
		s := lo + model.Timestamp(rng.Int63n(span))
		var d int64
		switch rng.Intn(8) {
		case 0:
			d = rng.Int63n(span / 2)
		case 1:
			d = 0
		default:
			d = rng.Int63n(span/16 + 1)
		}
		e := s + d
		if e > hi {
			e = hi
		}
		entries[i] = postings.Posting{ID: model.ObjectID(i), Interval: iv(s, e)}
	}
	return entries
}

func TestPaperFigure4Assignment(t *testing.T) {
	// Figure 4: m = 3, interval i spanning cells [1, 4] is assigned to
	// P3,1 (original), P2,1 and P3,4 (replicas).
	dom := domain.New(0, 7, 3) // one cell per unit
	ix := New(dom)
	type hit struct {
		level    int
		j        uint32
		original bool
	}
	var hits []hit
	ix.visitAssignments(iv(1, 4), func(level int, j uint32, original, endsInside bool) {
		hits = append(hits, hit{level, j, original})
	})
	want := map[hit]bool{
		{3, 1, true}:  true,
		{2, 1, false}: true,
		{3, 4, false}: true,
	}
	if len(hits) != len(want) {
		t.Fatalf("assignments = %v, want %v", hits, want)
	}
	for _, h := range hits {
		if !want[h] {
			t.Errorf("unexpected assignment %+v", h)
		}
	}
}

func TestAssignmentProperties(t *testing.T) {
	// (1) at most 2 partitions per level, (2) the union of partition
	// extents equals the discretized interval exactly, (3) exactly one
	// original.
	rng := rand.New(rand.NewSource(2))
	dom := domain.New(0, 1023, 7)
	ix := New(dom)
	for trial := 0; trial < 2000; trial++ {
		a := model.Timestamp(rng.Intn(1024))
		b := a + model.Timestamp(rng.Intn(int(1024-a)))
		perLevel := map[int]int{}
		covered := map[uint32]bool{}
		originals := 0
		ix.visitAssignments(iv(a, b), func(level int, j uint32, original, endsInside bool) {
			perLevel[level]++
			lo, hi := dom.PartitionExtent(level, j)
			for c := lo; c <= hi; c++ {
				if covered[c] {
					t.Fatalf("cell %d covered twice for [%d,%d]", c, a, b)
				}
				covered[c] = true
			}
			if original {
				originals++
			}
		})
		for level, n := range perLevel {
			if n > 2 {
				t.Fatalf("level %d got %d assignments for [%d,%d]", level, n, a, b)
			}
		}
		lo, hi := dom.DiscInterval(iv(a, b))
		for c := lo; c <= hi; c++ {
			if !covered[c] {
				t.Fatalf("cell %d not covered for [%d,%d]", c, a, b)
			}
		}
		if len(covered) != int(hi-lo+1) {
			t.Fatalf("covered cells outside the interval for [%d,%d]", a, b)
		}
		if originals != 1 {
			t.Fatalf("%d originals for [%d,%d], want 1", originals, a, b)
		}
	}
}

func TestRangeQueryOracleSmallDomain(t *testing.T) {
	// Exhaustive queries over a small domain catch every flag/parity case.
	for _, m := range []int{0, 1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(m)))
		entries := randomEntries(rng, 120, 0, 63)
		dom := domain.New(0, 63, m)
		ix := Build(dom, entries)
		for qs := model.Timestamp(0); qs <= 63; qs += 3 {
			for qe := qs; qe <= 63; qe += 5 {
				got := canon(ix.RangeQuery(iv(qs, qe), nil))
				want := naiveOverlap(entries, iv(qs, qe))
				if !model.EqualIDs(got, want) {
					t.Fatalf("m=%d q=[%d,%d]: got %v, want %v", m, qs, qe, got, want)
				}
			}
		}
	}
}

func TestRangeQueryOracleLargeDomain(t *testing.T) {
	for _, m := range []int{4, 8, 10, 14} {
		rng := rand.New(rand.NewSource(int64(m) * 7))
		entries := randomEntries(rng, 1500, 0, 1_000_000)
		dom := domain.New(0, 1_000_000, m)
		ix := Build(dom, entries)
		for trial := 0; trial < 400; trial++ {
			s := model.Timestamp(rng.Int63n(1_000_001))
			e := s + model.Timestamp(rng.Int63n(1_000_001-int64(s)+1))
			got := canon(ix.RangeQuery(iv(s, e), nil))
			want := naiveOverlap(entries, iv(s, e))
			if !model.EqualIDs(got, want) {
				t.Fatalf("m=%d q=[%d,%d]: got %d ids, want %d ids", m, s, e, len(got), len(want))
			}
		}
	}
}

func TestRangeQueryNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	entries := randomEntries(rng, 800, 0, 4095)
	ix := Build(domain.New(0, 4095, 9), entries)
	for trial := 0; trial < 200; trial++ {
		s := model.Timestamp(rng.Intn(4096))
		e := s + model.Timestamp(rng.Intn(4096-int(s)))
		got := ix.RangeQuery(iv(s, e), nil)
		seen := map[model.ObjectID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate id %d for q=[%d,%d]", id, s, e)
			}
			seen[id] = true
		}
	}
}

func TestQueryOutsideDomain(t *testing.T) {
	entries := []postings.Posting{
		{ID: 0, Interval: iv(10, 20)},
		{ID: 1, Interval: iv(90, 100)},
	}
	ix := Build(domain.New(0, 100, 4), entries)
	if got := ix.RangeQuery(iv(200, 300), nil); len(got) != 0 {
		t.Errorf("query beyond domain returned %v", got)
	}
	if got := ix.RangeQuery(iv(-50, -10), nil); len(got) != 0 {
		t.Errorf("query before domain returned %v", got)
	}
	got := canon(ix.RangeQuery(iv(-50, 300), nil))
	if !model.EqualIDs(got, []model.ObjectID{0, 1}) {
		t.Errorf("covering query returned %v", got)
	}
	// Query touching the clamped edge still compares real endpoints.
	if got := ix.RangeQuery(iv(101, 300), nil); len(got) != 0 {
		t.Errorf("query just past the last interval returned %v", got)
	}
}

func TestInsertMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entries := randomEntries(rng, 500, 0, 9999)
	dom := domain.New(0, 9999, 8)
	bulk := Build(dom, entries)
	incr := New(dom)
	for _, p := range entries {
		incr.Insert(p)
	}
	for trial := 0; trial < 200; trial++ {
		s := model.Timestamp(rng.Intn(10000))
		e := s + model.Timestamp(rng.Intn(10000-int(s)))
		a := canon(bulk.RangeQuery(iv(s, e), nil))
		b := canon(incr.RangeQuery(iv(s, e), nil))
		if !model.EqualIDs(a, b) {
			t.Fatalf("bulk vs incremental mismatch at q=[%d,%d]", s, e)
		}
	}
	if bulk.Len() != incr.Len() || bulk.EntryCount() != incr.EntryCount() {
		t.Error("bulk and incremental disagree on Len/EntryCount")
	}
}

func TestSubdivisionSortInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	entries := randomEntries(rng, 600, 0, 8191)
	ix := Build(domain.New(0, 8191, 7), entries)
	// Insert more entries through the sorted path, then verify invariants.
	for i := 0; i < 200; i++ {
		s := model.Timestamp(rng.Intn(8192))
		e := s + model.Timestamp(rng.Intn(8192-int(s)))
		ix.Insert(postings.Posting{ID: model.ObjectID(1000 + i), Interval: iv(s, e)})
	}
	for l := range ix.levels {
		for _, p := range ix.levels[l].parts {
			if !sort.SliceIsSorted(p.OIn, func(i, j int) bool {
				return p.OIn[i].Interval.Start < p.OIn[j].Interval.Start
			}) {
				t.Fatal("OIn lost start order")
			}
			if !sort.SliceIsSorted(p.OAft, func(i, j int) bool {
				return p.OAft[i].Interval.Start < p.OAft[j].Interval.Start
			}) {
				t.Fatal("OAft lost start order")
			}
			if !sort.SliceIsSorted(p.RIn, func(i, j int) bool {
				return p.RIn[i].Interval.End < p.RIn[j].Interval.End
			}) {
				t.Fatal("RIn lost end order")
			}
		}
	}
	// Directory keys stay sorted too.
	for l := range ix.levels {
		if !sort.SliceIsSorted(ix.levels[l].keys, func(i, j int) bool {
			return ix.levels[l].keys[i] < ix.levels[l].keys[j]
		}) {
			t.Fatal("level directory lost key order")
		}
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	entries := randomEntries(rng, 400, 0, 4095)
	ix := Build(domain.New(0, 4095, 8), entries)
	dead := map[model.ObjectID]bool{}
	for i := 0; i < 100; i++ {
		victim := entries[rng.Intn(len(entries))]
		if !dead[victim.ID] {
			if !ix.Delete(victim) {
				t.Fatalf("Delete(%d) found nothing", victim.ID)
			}
			dead[victim.ID] = true
		}
	}
	if ix.Len() != len(entries)-len(dead) {
		t.Errorf("Len = %d, want %d", ix.Len(), len(entries)-len(dead))
	}
	var alive []postings.Posting
	for _, p := range entries {
		if !dead[p.ID] {
			alive = append(alive, p)
		}
	}
	for trial := 0; trial < 200; trial++ {
		s := model.Timestamp(rng.Intn(4096))
		e := s + model.Timestamp(rng.Intn(4096-int(s)))
		got := canon(ix.RangeQuery(iv(s, e), nil))
		want := naiveOverlap(alive, iv(s, e))
		if !model.EqualIDs(got, want) {
			t.Fatalf("after deletes q=[%d,%d]: got %v, want %v", s, e, got, want)
		}
	}
	// Deleting a missing entry reports false.
	if ix.Delete(postings.Posting{ID: 99999, Interval: iv(1, 2)}) {
		t.Error("Delete of missing entry reported success")
	}
}

func TestPointIntervalsAndPointQueries(t *testing.T) {
	var entries []postings.Posting
	for i := 0; i < 64; i++ {
		entries = append(entries, postings.Posting{ID: model.ObjectID(i), Interval: iv(model.Timestamp(i), model.Timestamp(i))})
	}
	ix := Build(domain.New(0, 63, 6), entries)
	for q := model.Timestamp(0); q < 64; q++ {
		got := canon(ix.RangeQuery(iv(q, q), nil))
		if len(got) != 1 || got[0] != model.ObjectID(q) {
			t.Fatalf("stab %d: got %v", q, got)
		}
	}
}

func TestEntryCountAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := randomEntries(rng, 300, 0, 1023)
	ix := Build(domain.New(0, 1023, 6), entries)
	if ix.EntryCount() < int64(len(entries)) {
		t.Errorf("EntryCount %d below input size", ix.EntryCount())
	}
	if ix.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	if ix.PartitionCount() <= 0 {
		t.Error("PartitionCount should be positive")
	}
}

func TestStabMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	entries := randomEntries(rng, 400, 0, 2047)
	ix := Build(domain.New(0, 2047, 7), entries)
	for trial := 0; trial < 200; trial++ {
		tp := model.Timestamp(rng.Intn(2048))
		got := canon(ix.RangeQuery(iv(tp, tp), nil))
		want := naiveOverlap(entries, iv(tp, tp))
		if !model.EqualIDs(got, want) {
			t.Fatalf("RangeQuery(%d, %d): got %d, want %d ids", tp, tp, len(got), len(want))
		}
	}
}

func TestEstimateM(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	span := iv(0, 1<<20)
	var short, long []model.Object
	for i := 0; i < 3000; i++ {
		s := model.Timestamp(rng.Int63n(1 << 20))
		short = append(short, model.Object{Interval: iv(s, s+model.Timestamp(rng.Intn(100)))})
		e := s + model.Timestamp(rng.Int63n(1<<19))
		if e > span.End {
			e = span.End
		}
		long = append(long, model.Object{Interval: iv(s, e)})
	}
	cfg := DefaultCostModelConfig()
	mShort := EstimateM(short, span, cfg)
	mLong := EstimateM(long, span, cfg)
	if mShort < 1 || mShort > 20 || mLong < 1 || mLong > 20 {
		t.Fatalf("m out of range: short=%d long=%d", mShort, mLong)
	}
	// Long intervals replicate more; the model must not choose a finer
	// grid for them than for short ones.
	if mLong > mShort {
		t.Errorf("mLong=%d > mShort=%d", mLong, mShort)
	}
	if got := EstimateM(nil, span, cfg); got != 8 {
		t.Errorf("empty input default m = %d, want 8", got)
	}
}

func TestVisitFlagParity(t *testing.T) {
	// For a query covering the whole domain, f=0 and l=2^l-1 at every
	// level, so both flags must drop after the bottom level.
	dom := domain.New(0, 255, 4)
	var visits []LevelVisit
	Visit(dom, iv(0, 255), func(lv LevelVisit) { visits = append(visits, lv) })
	if len(visits) != 5 {
		t.Fatalf("visited %d levels, want 5", len(visits))
	}
	if !visits[0].CompFirst || !visits[0].CompLast {
		t.Error("bottom level must start with both flags set")
	}
	for _, lv := range visits[1:] {
		if lv.CompFirst || lv.CompLast {
			t.Errorf("level %d: flags should have dropped (f=%d l=%d)", lv.Level, lv.F, lv.L)
		}
	}
}

func TestObligations(t *testing.T) {
	lv := LevelVisit{Level: 3, F: 2, L: 5, CompFirst: true, CompLast: true}
	first := lv.Oblige(2)
	if !first.First || !first.CheckStart || first.CheckEnd {
		t.Errorf("first partition obligations = %+v", first)
	}
	last := lv.Oblige(5)
	if last.First || last.CheckStart || !last.CheckEnd {
		t.Errorf("last partition obligations = %+v", last)
	}
	mid := lv.Oblige(3)
	if mid.First || mid.CheckStart || mid.CheckEnd {
		t.Errorf("middle partition obligations = %+v", mid)
	}
	single := LevelVisit{F: 4, L: 4, CompFirst: true, CompLast: true}
	ob := single.Oblige(4)
	if !ob.First || !ob.CheckStart || !ob.CheckEnd {
		t.Errorf("single-partition obligations = %+v", ob)
	}
}
