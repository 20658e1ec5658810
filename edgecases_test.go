package temporalir_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	temporalir "repro"
	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/testutil"
)

// allMethods includes the plain tIF alongside the benchmarked family.
func allMethods() []temporalir.Method {
	return append(temporalir.Methods(), temporalir.TIF)
}

func checkAll(t *testing.T, c *temporalir.Collection, queries []temporalir.Query) {
	t.Helper()
	oracle := bruteforce.New(c)
	for _, m := range allMethods() {
		ix, err := temporalir.NewIndex(m, c, temporalir.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for i, q := range queries {
			got := testutil.Canonical(ix.Query(q))
			want := testutil.Canonical(oracle.Query(q))
			if !model.EqualIDs(got, want) {
				t.Fatalf("%s query %d (%v, %v): got %v, want %v",
					m, i, q.Interval, q.Elems, got, want)
			}
		}
	}
}

func TestNegativeTimestamps(t *testing.T) {
	var c temporalir.Collection
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := temporalir.Timestamp(rng.Int63n(20000)) - 10000
		e := s + temporalir.Timestamp(rng.Int63n(3000))
		c.AppendObject(temporalir.Interval{Start: s, End: e},
			[]temporalir.ElemID{temporalir.ElemID(rng.Intn(8)), temporalir.ElemID(rng.Intn(8))})
	}
	var queries []temporalir.Query
	for i := 0; i < 120; i++ {
		s := temporalir.Timestamp(rng.Int63n(24000)) - 12000
		e := s + temporalir.Timestamp(rng.Int63n(6000))
		queries = append(queries, temporalir.Query{
			Interval: temporalir.Interval{Start: s, End: e},
			Elems:    []temporalir.ElemID{temporalir.ElemID(rng.Intn(8))},
		})
	}
	checkAll(t, &c, queries)
}

func TestIdenticalIntervals(t *testing.T) {
	// Every object shares one lifespan: partition routing degenerates to
	// a single chain; only the element predicate differentiates.
	var c temporalir.Collection
	for i := 0; i < 60; i++ {
		c.AppendObject(temporalir.Interval{Start: 100, End: 200},
			[]temporalir.ElemID{temporalir.ElemID(i % 5), temporalir.ElemID(i % 3)})
	}
	queries := []temporalir.Query{
		{Interval: temporalir.Interval{Start: 150, End: 160}, Elems: []temporalir.ElemID{0}},
		{Interval: temporalir.Interval{Start: 0, End: 99}, Elems: []temporalir.ElemID{0}},
		{Interval: temporalir.Interval{Start: 200, End: 300}, Elems: []temporalir.ElemID{1, 2}},
		{Interval: temporalir.Interval{Start: 100, End: 100}, Elems: []temporalir.ElemID{0, 1, 2}},
	}
	checkAll(t, &c, queries)
}

func TestSingleObjectCollection(t *testing.T) {
	var c temporalir.Collection
	c.AppendObject(temporalir.Interval{Start: 5, End: 5}, []temporalir.ElemID{0})
	queries := []temporalir.Query{
		{Interval: temporalir.Interval{Start: 5, End: 5}, Elems: []temporalir.ElemID{0}},
		{Interval: temporalir.Interval{Start: 4, End: 4}, Elems: []temporalir.ElemID{0}},
		{Interval: temporalir.Interval{Start: 6, End: 6}, Elems: []temporalir.ElemID{0}},
		{Interval: temporalir.Interval{Start: 0, End: 10}, Elems: []temporalir.ElemID{1}},
	}
	checkAll(t, &c, queries)
}

func TestPointDomain(t *testing.T) {
	// Every object is the same time point: the domain has a single cell.
	var c temporalir.Collection
	for i := 0; i < 20; i++ {
		c.AppendObject(temporalir.Interval{Start: 42, End: 42},
			[]temporalir.ElemID{temporalir.ElemID(i % 4)})
	}
	queries := []temporalir.Query{
		{Interval: temporalir.Interval{Start: 42, End: 42}, Elems: []temporalir.ElemID{0}},
		{Interval: temporalir.Interval{Start: 41, End: 43}, Elems: []temporalir.ElemID{1}},
		{Interval: temporalir.Interval{Start: 0, End: 41}, Elems: []temporalir.ElemID{2}},
	}
	checkAll(t, &c, queries)
}

func TestHugeTimestamps(t *testing.T) {
	// Nanosecond-epoch-sized values exercise the discretization's 64-bit
	// arithmetic.
	base := temporalir.Timestamp(1_700_000_000_000_000_000)
	var c temporalir.Collection
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 150; i++ {
		s := base + temporalir.Timestamp(rng.Int63n(1_000_000_000_000))
		e := s + temporalir.Timestamp(rng.Int63n(10_000_000_000))
		c.AppendObject(temporalir.Interval{Start: s, End: e},
			[]temporalir.ElemID{temporalir.ElemID(rng.Intn(6))})
	}
	var queries []temporalir.Query
	for i := 0; i < 80; i++ {
		s := base + temporalir.Timestamp(rng.Int63n(1_000_000_000_000))
		e := s + temporalir.Timestamp(rng.Int63n(50_000_000_000))
		queries = append(queries, temporalir.Query{
			Interval: temporalir.Interval{Start: s, End: e},
			Elems:    []temporalir.ElemID{temporalir.ElemID(rng.Intn(6))},
		})
	}
	checkAll(t, &c, queries)
}

// TestWideIntervalQueries: library queries over intervals of more than
// 2^63−1 time points answer like any other. Such an interval's length
// does not fit an int64: TimelineCtx used to panic sizing its buckets and
// SearchTopKCtx to score +Inf.
func TestWideIntervalQueries(t *testing.T) {
	objs := []struct {
		s, e  temporalir.Timestamp
		terms []string
	}{
		{-1 << 61, -1<<61 + 9, []string{"a"}},
		{-50, -10, []string{"a"}},
		{0, 100, []string{"a", "b"}},
		{90, 200, []string{"a"}},
		{300, 400, []string{"b"}},
		{1 << 61, 1<<61 + 5, []string{"a"}},
	}
	b := temporalir.NewBuilder()
	for _, o := range objs {
		b.Add(o.s, o.e, o.terms...)
	}
	for _, shards := range []int{1, 4} {
		e, err := b.BuildSharded(temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, iv := range []temporalir.Interval{{Start: math.MinInt64, End: math.MaxInt64}, {Start: 0, End: math.MaxInt64}, {Start: math.MinInt64, End: 0}} {
			name := fmt.Sprintf("%d stores [%d, %d]", shards, iv.Start, iv.End)
			matches := 0
			for _, o := range objs {
				if o.terms[0] == "a" && iv.Overlaps(temporalir.Interval{Start: o.s, End: o.e}) {
					matches++
				}
			}
			rs, _ := e.SearchTopKCtx(context.Background(), iv.Start, iv.End, 10, "a")
			if len(rs) != matches {
				t.Fatalf("%s: top-k returned %d hits, want %d", name, len(rs), matches)
			}
			for _, r := range rs {
				if !(r.Score >= 0 && r.Score <= 1) {
					t.Fatalf("%s: score %v outside [0, 1]", name, r.Score)
				}
			}
			for _, n := range []int{1, 2, 4} {
				tl, _ := e.TimelineCtx(context.Background(), iv.Start, iv.End, n, "a")
				if len(tl) != n || tl[0].Start != iv.Start || tl[n-1].End != iv.End {
					t.Fatalf("%s: %d buckets do not tile the interval: %+v", name, n, tl)
				}
				for i, bk := range tl {
					if i > 0 && bk.Start != tl[i-1].End+1 {
						t.Fatalf("%s: bucket %d starts at %d after %d", name, i, bk.Start, tl[i-1].End)
					}
					count, mass := 0, int64(0)
					for _, o := range objs {
						clip, ok := temporalir.Interval{Start: o.s, End: o.e}.Intersect(temporalir.Interval{Start: bk.Start, End: bk.End})
						if o.terms[0] == "a" && ok {
							count++
							mass += clip.Duration()
						}
					}
					if bk.Count != count || bk.Mass != mass {
						t.Fatalf("%s: bucket %d of %d = %+v, want count %d mass %d", name, i, n, bk, count, mass)
					}
				}
			}
		}
	}
}

func TestRealStandInEquivalence(t *testing.T) {
	// The ECLOG-like shape (long durations, zipf elements, big sparse
	// dictionary) against the oracle for every method.
	c := gen.ECLOGLike(gen.RealConfig{Scale: 0.001, Seed: 7})
	queries := gen.Workload(c, gen.DefaultQueryConfig(), 60, 8)
	queries = append(queries, gen.MixedPool(c, 60, 9)...)
	checkAll(t, c, queries)
}

// TestNewIndexAnyObjectOrder: every method, built through NewIndex over a
// collection whose objects are not in id order or whose element ids reach
// past DictSize, answers as the oracle does, by workload digest.
func TestNewIndexAnyObjectOrder(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[0]
	base := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()
	digest := func(ix model.Querier) string {
		rows := make([][]model.ObjectID, len(queries))
		for i, q := range queries {
			rows[i] = ix.Query(q)
		}
		return testutil.WorkloadChecksum(rows)
	}
	want := digest(bruteforce.New(base))
	reversed := &temporalir.Collection{DictSize: base.DictSize, Objects: slices.Clone(base.Objects)}
	slices.Reverse(reversed.Objects)
	shuffled := &temporalir.Collection{DictSize: base.DictSize, Objects: slices.Clone(base.Objects)}
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled.Objects), func(i, j int) {
		shuffled.Objects[i], shuffled.Objects[j] = shuffled.Objects[j], shuffled.Objects[i]
	})
	for name, c := range map[string]*temporalir.Collection{
		"reversed":             reversed,
		"shuffled":             shuffled,
		"ids past DictSize":    {DictSize: 2, Objects: base.Objects},
		"shuffled, DictSize 0": {Objects: shuffled.Objects},
	} {
		for _, m := range append(allMethods(), temporalir.Routed) {
			ix, err := temporalir.NewIndex(m, c, temporalir.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m, err)
			}
			if got := digest(ix); got != want {
				t.Errorf("%s/%s: digest %s, oracle %s", name, m, got, want)
			}
		}
	}
}

func TestDuplicateElementsInQuery(t *testing.T) {
	var c temporalir.Collection
	c.AppendObject(temporalir.Interval{Start: 0, End: 10}, []temporalir.ElemID{0, 1})
	q := temporalir.Query{
		Interval: temporalir.Interval{Start: 5, End: 6},
		// Deliberately unnormalized: duplicate elements.
		Elems: []temporalir.ElemID{0, 0, 1, 1},
	}
	for _, m := range allMethods() {
		ix, _ := temporalir.NewIndex(m, &c, temporalir.Options{})
		got := ix.Query(q)
		if len(testutil.Canonical(got)) != 1 {
			t.Errorf("%s: duplicate query elements broke the plan: %v", m, got)
		}
	}
}

// TestWideCorpus: a corpus whose own span exceeds 2^63−1 points — one
// object at each end of the int64 range — builds and answers like any
// other, with every method at one and four stores, before and after a
// compaction. Its span's length in points, 2^64, fits no int64 or
// uint64: the HINT grid used to divide by it wrapped to 0, and the
// slicing and time-range shard layouts indexed slot −1.
func TestWideCorpus(t *testing.T) {
	type obj struct {
		iv    temporalir.Interval
		terms []string
	}
	objs := []obj{
		{temporalir.Interval{Start: math.MinInt64, End: math.MinInt64}, []string{"a"}},
		{temporalir.Interval{Start: math.MaxInt64, End: math.MaxInt64}, []string{"a", "b"}},
		{temporalir.Interval{Start: 0, End: 10}, []string{"a", "b"}},
	}
	b := temporalir.NewBuilder()
	for _, o := range objs {
		b.Add(o.iv.Start, o.iv.End, o.terms...)
	}
	scan := func(live map[temporalir.ObjectID]obj, iv temporalir.Interval, terms []string) []temporalir.ObjectID {
		var out []temporalir.ObjectID
		for id, o := range live {
			if iv.Overlaps(o.iv) && !slices.ContainsFunc(terms, func(t string) bool { return !slices.Contains(o.terms, t) }) {
				out = append(out, id)
			}
		}
		temporalir.SortIDs(out)
		return out
	}
	ivs := []temporalir.Interval{
		{Start: math.MinInt64, End: math.MaxInt64},
		{Start: math.MinInt64, End: math.MinInt64},
		{Start: math.MaxInt64, End: math.MaxInt64},
		{Start: math.MinInt64, End: -1},
		{Start: 0, End: math.MaxInt64},
		{Start: 5, End: 5},
	}
	for _, m := range append(allMethods(), temporalir.Routed) {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("%s/%d stores", m, shards)
			e, err := b.BuildSharded(m, temporalir.Options{}, temporalir.ShardedOptions{Shards: shards})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			live := map[temporalir.ObjectID]obj{}
			for i, o := range objs {
				live[temporalir.ObjectID(i)] = o
			}
			check := func(stage string) {
				t.Helper()
				for _, iv := range ivs {
					for _, terms := range [][]string{{"a"}, {"b"}, {"a", "b"}} {
						got := e.Search(iv.Start, iv.End, terms...)
						if want := scan(live, iv, terms); !slices.Equal(got, want) {
							t.Fatalf("%s %s: %v %v = %v, want %v", name, stage, iv, terms, got, want)
						}
					}
				}
			}
			check("built")
			extra := obj{temporalir.Interval{Start: -5, End: 5}, []string{"b"}}
			live[e.Insert(extra.iv.Start, extra.iv.End, extra.terms...)] = extra
			if err := e.Delete(0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			delete(live, 0)
			check("before compaction")
			if _, err := e.Compact(context.Background()); err != nil {
				t.Fatalf("%s: compact: %v", name, err)
			}
			check("compacted")
		}
	}
}
