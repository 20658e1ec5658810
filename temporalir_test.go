package temporalir

import (
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/testutil"
)

func exampleCollection() *Collection {
	var c Collection
	c.AppendObject(Interval{Start: 10, End: 15}, []ElemID{0, 1, 2}) // o1
	c.AppendObject(Interval{Start: 2, End: 5}, []ElemID{0, 2})      // o2
	c.AppendObject(Interval{Start: 0, End: 2}, []ElemID{1})         // o3
	c.AppendObject(Interval{Start: 0, End: 15}, []ElemID{0, 1, 2})  // o4
	c.AppendObject(Interval{Start: 3, End: 7}, []ElemID{1, 2})      // o5
	c.AppendObject(Interval{Start: 2, End: 11}, []ElemID{2})        // o6
	c.AppendObject(Interval{Start: 4, End: 14}, []ElemID{0, 2})     // o7
	c.AppendObject(Interval{Start: 2, End: 3}, []ElemID{2})         // o8
	return &c
}

func TestAllMethodsAgreeOnRunningExample(t *testing.T) {
	q := Query{Interval: Interval{Start: 4, End: 6}, Elems: []ElemID{0, 2}}
	want := []ObjectID{1, 3, 6}
	methods := append(Methods(), TIF)
	for _, m := range methods {
		ix, err := NewIndex(m, exampleCollection(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got := testutil.Canonical(ix.Query(q))
		if len(got) != len(want) {
			t.Fatalf("%s: got %v, want %v", m, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", m, got, want)
			}
		}
	}
}

func TestAllMethodsAgreeOnSynthetic(t *testing.T) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 31}.Defaults(0.0005))
	queries := gen.Workload(c, gen.DefaultQueryConfig(), 100, 5)
	// Pairwise agreement against the first method, query by query.
	first, _ := NewIndex(Methods()[0], c, Options{})
	for _, m := range append(Methods()[1:], TIF) {
		ix, _ := NewIndex(m, c, Options{})
		for k, q := range queries {
			a := testutil.Canonical(first.Query(q))
			b := testutil.Canonical(ix.Query(q))
			if len(a) != len(b) {
				t.Fatalf("%s disagrees with %s on query %d: %d vs %d results", m, Methods()[0], k, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s disagrees with %s on query %d", m, Methods()[0], k)
				}
			}
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := NewIndex("nope", exampleCollection(), Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestTypedConstructors builds every method through NewIndex with the
// per-method options (slices, m) a caller would pass.
func TestTypedConstructors(t *testing.T) {
	c := exampleCollection()
	for name, tc := range map[string]struct {
		m    Method
		opts Options
	}{
		"tif":     {TIF, Options{}},
		"slicing": {TIFSlicing, Options{Slices: 4}},
		"shard":   {TIFSharding, Options{}},
		"binary":  {TIFHintBinary, Options{M: 3}},
		"merge":   {TIFHintMerge, Options{M: 3}},
		"hybrid":  {TIFHintSlicing, Options{M: 3, Slices: 4}},
		"perf":    {IRHintPerf, Options{M: 3}},
		"size":    {IRHintSize, Options{M: 3}},
	} {
		ix, err := NewIndex(tc.m, c, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix == nil {
			t.Fatalf("%s: nil index", name)
		}
		if ix.Len() != 8 {
			t.Errorf("%s: Len = %d", name, ix.Len())
		}
		if ix.SizeBytes() <= 0 {
			t.Errorf("%s: SizeBytes = %d", name, ix.SizeBytes())
		}
	}
}

func TestEngineSearch(t *testing.T) {
	b := NewBuilder()
	// The running example with real words: a=alpha, b=beta, c=gamma.
	b.Add(10, 15, "alpha", "beta", "gamma")
	b.Add(2, 5, "alpha", "gamma")
	b.Add(0, 2, "beta")
	b.Add(0, 15, "alpha", "beta", "gamma")
	b.Add(3, 7, "beta", "gamma")
	b.Add(2, 11, "gamma")
	b.Add(4, 14, "alpha", "gamma")
	b.Add(2, 3, "gamma")
	if b.Len() != 8 {
		t.Fatalf("builder Len = %d", b.Len())
	}
	e, err := b.Build(IRHintPerf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Search(4, 6, "alpha", "gamma")
	want := []ObjectID{1, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Search = %v, want %v", got, want)
		}
	}
	// Unknown term kills the conjunction.
	if res := e.Search(0, 15, "alpha", "unseen"); len(res) != 0 {
		t.Errorf("unknown term returned %v", res)
	}
	// Swapped endpoints are canonicalized.
	if a, b2 := e.Search(6, 4, "alpha", "gamma"), got; len(a) != len(b2) {
		t.Error("Search(6,4) should equal Search(4,6)")
	}
	iv, terms, err := e.Object(3)
	if err != nil || iv != (Interval{Start: 0, End: 15}) || len(terms) != 3 {
		t.Errorf("Object(3) = %v %v %v", iv, terms, err)
	}
	if _, _, err := e.Object(99); err == nil {
		t.Error("Object(99) should fail")
	}
	if e.Method() != IRHintPerf || e.NumShards() != 1 || e.SizeBytes() <= 0 {
		t.Error("Engine accessors misbehaved")
	}
}

func TestEngineInsertDelete(t *testing.T) {
	b := NewBuilder()
	b.Add(0, 10, "x", "y")
	e, err := b.Build(TIFSlicing, Options{Slices: 4})
	if err != nil {
		t.Fatal(err)
	}
	id := e.Insert(5, 15, "x", "z")
	if got := e.Search(12, 14, "x"); len(got) != 1 || got[0] != id {
		t.Errorf("Search after insert = %v", got)
	}
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := e.Search(12, 14, "x"); len(got) != 0 {
		t.Errorf("Search after delete = %v", got)
	}
	if err := e.Delete(42); err == nil {
		t.Error("Delete(42) should fail")
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.Len())
	}
}

func TestQueryAnyAndSearchAny(t *testing.T) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 95}.Defaults(0.0004))
	queries := gen.Workload(c, gen.QueryConfig{ExtentFrac: 0.01, NumElems: 3}, 60, 96)
	oracle := bruteforce.New(c)
	for _, m := range Methods() {
		ix, err := NewIndex(m, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			got := QueryAny(ix, q)
			// Oracle: any-of semantics via per-element union.
			var want []ObjectID
			for _, e := range q.Elems {
				want = append(want, oracle.Query(Query{Interval: q.Interval, Elems: []ElemID{e}})...)
			}
			SortIDs(want)
			want = testutil.Canonical(want)
			if !equalIDSlices(got, want) {
				t.Fatalf("%s query %d: got %d ids, want %d", m, i, len(got), len(want))
			}
		}
	}
	// Engine layer: unknown terms are ignored, not fatal.
	b := NewBuilder()
	b.Add(0, 10, "x")
	b.Add(5, 20, "y")
	e, _ := b.Build(IRHintPerf, Options{})
	if got := e.SearchAny(0, 30, "x", "unknown", "y"); len(got) != 2 {
		t.Errorf("SearchAny = %v", got)
	}
	if got := e.SearchAny(0, 30, "unknown"); got != nil {
		t.Errorf("all-unknown SearchAny = %v", got)
	}
}

func equalIDSlices(a, b []ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTimeline(t *testing.T) {
	b := NewBuilder()
	b.Add(0, 49, "x")  // first half only
	b.Add(0, 99, "x")  // whole period
	b.Add(60, 99, "x") // second half only
	b.Add(0, 99, "y")  // different term
	e, err := b.Build(IRHintPerf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := e.Timeline(0, 99, 2, "x")
	if len(tl) != 2 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl[0].Count != 2 || tl[1].Count != 2 {
		t.Errorf("counts = %d, %d", tl[0].Count, tl[1].Count)
	}
	if tl[0].Start != 0 || tl[1].End != 99 {
		t.Errorf("spans = %+v", tl)
	}
	// Mass reflects lifespan coverage: bucket 0 holds all 50 units of
	// object 0 and 50 of object 1.
	if tl[0].Mass != 100 {
		t.Errorf("bucket 0 mass = %d, want 100", tl[0].Mass)
	}
	if got := e.Timeline(0, 99, 4, "unseen"); got != nil {
		t.Errorf("unknown term gave %v", got)
	}
}

func TestJoinPublicAPI(t *testing.T) {
	var left, right Collection
	left.AppendObject(Interval{Start: 0, End: 10}, []ElemID{1, 2})
	left.AppendObject(Interval{Start: 20, End: 30}, []ElemID{1})
	right.AppendObject(Interval{Start: 5, End: 25}, []ElemID{2, 3})
	right.AppendObject(Interval{Start: 40, End: 50}, []ElemID{1, 2})

	// Pure temporal join: (L0,R0) and (L1,R0).
	pairs := Join(&left, &right, 0)
	if len(pairs) != 2 {
		t.Fatalf("temporal join = %v", pairs)
	}
	// Requiring one shared element keeps only (L0,R0) via element 2.
	pairs = Join(&left, &right, 1)
	if len(pairs) != 1 || pairs[0] != (JoinPair{Left: 0, Right: 0}) {
		t.Fatalf("k=1 join = %v", pairs)
	}
	if got := Join(&left, &right, 3); len(got) != 0 {
		t.Errorf("k=3 join = %v", got)
	}

	var c Collection
	c.AppendObject(Interval{Start: 0, End: 10}, []ElemID{1})
	c.AppendObject(Interval{Start: 5, End: 15}, []ElemID{1})
	c.AppendObject(Interval{Start: 50, End: 60}, []ElemID{1})
	self := SelfJoin(&c, 1)
	if len(self) != 1 || self[0] != (JoinPair{Left: 0, Right: 1}) {
		t.Fatalf("self join = %v", self)
	}
}

func TestQueryBatch(t *testing.T) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 91}.Defaults(0.0005))
	queries := gen.Workload(c, gen.DefaultQueryConfig(), 120, 92)
	ix, err := NewIndex(IRHintPerf, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial := QueryBatch(ix, queries, 1)
	for _, p := range []int{0, 2, 8, 1000} {
		parallel := QueryBatch(ix, queries, p)
		if len(parallel) != len(serial) {
			t.Fatalf("parallelism %d: %d results", p, len(parallel))
		}
		for i := range serial {
			a := testutil.Canonical(serial[i])
			b := testutil.Canonical(parallel[i])
			if len(a) != len(b) {
				t.Fatalf("parallelism %d query %d: %d vs %d results", p, i, len(b), len(a))
			}
		}
	}
	if got := QueryBatch(ix, nil, 4); len(got) != 0 {
		t.Errorf("empty batch gave %v", got)
	}
}

func TestConcurrentReaders(t *testing.T) {
	// Indices promise safety for concurrent readers after construction;
	// run with -race to verify.
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 77}.Defaults(0.0005))
	queries := gen.Workload(c, gen.DefaultQueryConfig(), 50, 78)
	for _, m := range Methods() {
		ix, err := NewIndex(m, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]ObjectID, len(queries))
		for i, q := range queries {
			want[i] = testutil.Canonical(ix.Query(q))
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range queries {
					got := testutil.Canonical(ix.Query(q))
					if len(got) != len(want[i]) {
						errs <- string(m)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("%s: concurrent readers diverged", e)
		}
	}
}

func TestSearchTopK(t *testing.T) {
	b := NewBuilder()
	b.Add(0, 100, "common", "rare")  // full overlap of the query below
	b.Add(90, 200, "common", "rare") // tail overlap only
	b.Add(0, 100, "common")          // missing "rare"
	for i := 0; i < 20; i++ {
		b.Add(0, 100, "common") // make "common" frequent
	}
	e, err := b.Build(IRHintPerf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := e.SearchTopK(0, 99, 5, "common", "rare")
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	// The fully overlapping object must rank above the tail overlap.
	if got[0].ID != 0 || got[1].ID != 1 {
		t.Errorf("ranking = %v", got)
	}
	if got[0].Score < got[1].Score {
		t.Error("scores not descending")
	}
	// k truncates.
	if got := e.SearchTopK(0, 99, 1, "common", "rare"); len(got) != 1 || got[0].ID != 0 {
		t.Errorf("k=1 gave %v", got)
	}
	// Unknown term yields nothing.
	if got := e.SearchTopK(0, 99, 3, "unseen"); got != nil {
		t.Errorf("unknown term gave %v", got)
	}
	// An insert is ranked with no refresh step.
	e.Insert(0, 100, "common", "rare", "fresh")
	if got := e.SearchTopK(0, 99, 10, "rare"); len(got) != 3 {
		t.Errorf("after insert: %v", got)
	}
}
