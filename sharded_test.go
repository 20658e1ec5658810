package temporalir_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	temporalir "repro"
	"repro/internal/aggregate"
	"repro/internal/bruteforce"
	"repro/internal/model"
	"repro/internal/rank"
	"repro/internal/testutil"
)

// all9Methods is the full family the shard differential must cover: the
// seven paper-table methods, the base tIF, and the Routed meta-method.
func all9Methods() []temporalir.Method {
	ms := append([]temporalir.Method{temporalir.TIF}, temporalir.Methods()...)
	return append(ms, temporalir.Routed)
}

// termsFor maps workload element ids onto the "t%03d" vocabulary
// engineOver interns, so id-level differential queries run through the
// string search surface.
func termsFor(elems []model.ElemID) []string {
	terms := make([]string, len(elems))
	for i, e := range elems {
		terms[i] = fmt.Sprintf("t%03d", e)
	}
	return terms
}

// shardedOver builds a 4-shard engine over a collection by replaying
// its objects through the Builder — the same replay engineOver uses, so
// the two assign identical ids and intern identical term ids.
func shardedOver(t *testing.T, c *temporalir.Collection, m temporalir.Method, shards int) *temporalir.Engine {
	t.Helper()
	b := temporalir.NewBuilder()
	for i := range c.Objects {
		o := &c.Objects[i]
		b.Add(o.Interval.Start, o.Interval.End, termsFor(o.Elems)...)
	}
	sh, err := b.BuildSharded(m, temporalir.Options{}, temporalir.ShardedOptions{Shards: shards})
	if err != nil {
		t.Fatalf("building sharded %s: %v", m, err)
	}
	return sh
}

// shardDiffConfig is the corpus of the shard differential: wide enough
// in time for the 4-way range partition to matter, dictionary small
// enough for dense conjunctions.
var shardDiffConfig = testutil.CollectionConfig{
	N: 400, DomainLo: 0, DomainHi: 8000, Dict: 30, MaxDesc: 6, Seed: 4242,
}

func shardDiffQueries() []model.Query {
	w := testutil.DifferentialWorkload{Config: shardDiffConfig, Queries: 80, QSeed: 4243}
	return w.WorkloadQueries()
}

// assertShardParity checks that the sharded engine answers every query
// — conjunctive search, ranked top-k and timeline — byte-identically to
// the single-engine oracle, via SHA-256 workload digests for the id
// results and exact comparison for scored/bucketed results.
func assertShardParity(t *testing.T, label string, oracle *temporalir.Engine, sh *temporalir.Engine, queries []model.Query) {
	t.Helper()
	wantRows := make([][]temporalir.ObjectID, len(queries))
	gotRows := make([][]temporalir.ObjectID, len(queries))
	for i, q := range queries {
		terms := termsFor(q.Elems)
		wantRows[i] = oracle.Search(q.Interval.Start, q.Interval.End, terms...)
		gotRows[i] = sh.Search(q.Interval.Start, q.Interval.End, terms...)
	}
	want := testutil.WorkloadChecksum(wantRows)
	got := testutil.WorkloadChecksum(gotRows)
	if got != want {
		for i := range queries {
			if !model.EqualIDs(gotRows[i], wantRows[i]) {
				t.Fatalf("%s: query %d (%v elems=%v): sharded %v, oracle %v",
					label, i, queries[i].Interval, queries[i].Elems, gotRows[i], wantRows[i])
			}
		}
		t.Fatalf("%s: workload digest %s != oracle %s", label, got, want)
	}
	// Ranked and timeline surfaces on a subset (they are heavier).
	for i := 0; i < len(queries); i += 7 {
		q := queries[i]
		terms := termsFor(q.Elems)
		wantK := oracle.SearchTopK(q.Interval.Start, q.Interval.End, 10, terms...)
		gotK := sh.SearchTopK(q.Interval.Start, q.Interval.End, 10, terms...)
		if !reflect.DeepEqual(gotK, wantK) {
			t.Fatalf("%s: top-k query %d: sharded %v, oracle %v", label, i, gotK, wantK)
		}
		wantT := oracle.Timeline(q.Interval.Start, q.Interval.End, 7, terms...)
		gotT := sh.Timeline(q.Interval.Start, q.Interval.End, 7, terms...)
		if !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("%s: timeline query %d: sharded %v, oracle %v", label, i, gotT, wantT)
		}
	}
}

// scanOracle answers the store-count differential from first
// principles, on no code path the engine uses to answer: a bruteforce
// scan over the live objects for containment and timelines, and
// rank.NewScorer over the stored corpus — tombstoned objects included
// until a compaction drops them — for top-k. Ids are the collection's
// dense ids, which EngineFromCollection keeps as external ids.
type scanOracle struct {
	coll    *model.Collection
	live    *bruteforce.Index
	dead    map[model.ObjectID]bool // deleted, still weighed by top-k
	dropped map[model.ObjectID]bool // deleted and compacted away
}

func newScanOracle(c *model.Collection) *scanOracle {
	return &scanOracle{coll: c, live: bruteforce.New(c), dead: map[model.ObjectID]bool{}, dropped: map[model.ObjectID]bool{}}
}

func (o *scanOracle) delete(id model.ObjectID) {
	o.live.Delete(id)
	o.dead[id] = true
}

// compact drops every deleted object from the ranked corpus.
func (o *scanOracle) compact() {
	for id := range o.dead { // lint:map-order-ok set copy
		o.dropped[id] = true
	}
}

// known reports whether every query element has a dictionary term; an
// unknown term makes top-k and timeline answers nil, as in the engine.
func (o *scanOracle) known(q model.Query) bool {
	for _, e := range q.Elems {
		if int(e) >= o.coll.DictSize {
			return false
		}
	}
	return true
}

// hitIDs is a containment "index" over precomputed candidates.
type hitIDs []model.ObjectID

func (h hitIDs) Query(model.Query) []model.ObjectID { return h }

func (o *scanOracle) topK(q model.Query, k int) []temporalir.ScoredResult {
	if !o.known(q) {
		return nil
	}
	q.Elems = model.NormalizeElems(append([]model.ElemID(nil), q.Elems...))
	corpus := &model.Collection{DictSize: o.coll.DictSize}
	var ext []model.ObjectID
	var hits hitIDs
	for _, obj := range o.coll.Objects {
		id := obj.ID
		if o.dropped[id] {
			continue
		}
		obj.ID = model.ObjectID(len(corpus.Objects))
		corpus.Objects = append(corpus.Objects, obj)
		ext = append(ext, id)
		if !o.dead[id] && q.Matches(&obj) {
			hits = append(hits, obj.ID)
		}
	}
	res := rank.TopK(hits, corpus, rank.NewScorer(corpus, rank.ScorerConfig{}), q, k)
	out := make([]temporalir.ScoredResult, len(res))
	for i, r := range res {
		out[i] = temporalir.ScoredResult{ID: ext[r.ID], Score: r.Score}
	}
	return out
}

func (o *scanOracle) timeline(q model.Query, buckets int) []temporalir.TimelineBucket {
	if !o.known(q) {
		return nil
	}
	out := []temporalir.TimelineBucket{}
	for _, b := range aggregate.Histogram(o.live, o.coll, q, buckets) {
		out = append(out, temporalir.TimelineBucket{Start: b.Span.Start, End: b.Span.End, Count: b.Count, Mass: b.Mass})
	}
	return out
}

// elemTerms spells element ids in EngineFromCollection's vocabulary.
func elemTerms(elems []model.ElemID) []string {
	terms := make([]string, len(elems))
	for i, e := range elems {
		terms[i] = fmt.Sprintf("e%d", e)
	}
	return terms
}

// testApiDifferential checks one engine against the scan oracle: the
// SHA-256 workload digest of its conjunctive searches, then ranked
// top-k (ids and score bits) and timelines on a subset.
func testApiDifferential(e *temporalir.Engine, t *testing.T, label string, o *scanOracle, queries []model.Query) {
	t.Helper()
	wantRows := make([][]temporalir.ObjectID, len(queries))
	gotRows := make([][]temporalir.ObjectID, len(queries))
	for i, q := range queries {
		wantRows[i] = testutil.Canonical(o.live.Query(q))
		gotRows[i] = e.Search(q.Interval.Start, q.Interval.End, elemTerms(q.Elems)...)
	}
	if got, want := testutil.WorkloadChecksum(gotRows), testutil.WorkloadChecksum(wantRows); got != want {
		for i := range queries {
			if !model.EqualIDs(gotRows[i], wantRows[i]) {
				t.Fatalf("%s: query %d (%v elems=%v): engine %v, oracle %v",
					label, i, queries[i].Interval, queries[i].Elems, gotRows[i], wantRows[i])
			}
		}
		t.Fatalf("%s: workload digest %s != oracle %s", label, got, want)
	}
	for i := 0; i < len(queries); i += 7 {
		q := queries[i]
		terms := elemTerms(q.Elems)
		if got, want := e.SearchTopK(q.Interval.Start, q.Interval.End, 10, terms...), o.topK(q, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: top-k query %d: engine %v, oracle %v", label, i, got, want)
		}
		if got, want := e.Timeline(q.Interval.Start, q.Interval.End, 7, terms...), o.timeline(q, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: timeline query %d: engine %v, oracle %v", label, i, got, want)
		}
	}
}

// TestDifferentialSharded is the store-layout acceptance gate: engines
// of 1 and 4 stores must match the scan oracle's SHA-256 result digests
// across all 9 methods, at 0/25/50% deleted, before and after
// (parallel) compaction.
func TestDifferentialSharded(t *testing.T) {
	c := testutil.RandomCollection(shardDiffConfig)
	queries := shardDiffQueries()
	fractions := []struct {
		name string
		mod  int // delete ids where id % mod == 1 (0 = none)
	}{
		{"del0", 0},
		{"del25", 4},
		{"del50", 2},
	}
	for _, m := range all9Methods() {
		t.Run(string(m), func(t *testing.T) {
			for _, frac := range fractions {
				t.Run(frac.name, func(t *testing.T) {
					for _, shards := range []int{1, 4} {
						t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
							testApiStoreLayout(t, c, m, shards, frac.mod, queries)
						})
					}
				})
			}
		})
	}
}

// testApiStoreLayout builds a shards-store engine of method m, deletes
// the ids where id % mod == 1 (none for mod 0), and checks it against
// the scan oracle before and after compaction.
func testApiStoreLayout(t *testing.T, c *model.Collection, m temporalir.Method, shards, mod int, queries []model.Query) {
	e, err := temporalir.EngineFromCollectionN(c, m, temporalir.Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(4)
	if ns := e.NumShards(); ns != shards {
		t.Fatalf("NumShards = %d, want %d", ns, shards)
	}
	o := newScanOracle(c)
	if mod > 0 {
		for id := 0; id < len(c.Objects); id++ {
			if id%mod != 1 {
				continue
			}
			o.delete(temporalir.ObjectID(id))
			if err := e.Delete(temporalir.ObjectID(id)); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
		}
	}
	if ol, el := o.live.Len(), e.Len(); ol != el {
		t.Fatalf("live count diverged: oracle %d, engine %d", ol, el)
	}
	testApiDifferential(e, t, "pre-compaction", o, queries)

	if _, err := e.Compact(context.Background()); err != nil {
		t.Fatalf("compact: %v", err)
	}
	o.compact()
	// With tombstones present every store has work, so the parallel
	// fan-out must have compacted all of them; without deletions each
	// store legitimately no-ops.
	if st := e.CompactStats(); mod > 0 && st.Compactions < uint64(shards) {
		t.Fatalf("parallel compaction ran on %d stores, want %d", st.Compactions, shards)
	}
	testApiDifferential(e, t, "post-compaction", o, queries)
}

// TestShardedInsertParity grows an initially empty sharded engine and a
// single-engine oracle through the same insert/delete sequence: ids,
// lookups and search results must stay identical. An empty time-range
// request has no bounds to derive, so the map must fall back to hash
// partitioning.
func TestShardedInsertParity(t *testing.T) {
	sh, err := temporalir.NewSharded(temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.ShardOptions().Partition; got != temporalir.PartitionHash {
		t.Fatalf("empty time-range engine should fall back to hash, got %v", got)
	}
	oracle, err := temporalir.NewBuilder().Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}

	c := testutil.RandomCollection(shardDiffConfig)
	for i := range c.Objects {
		o := &c.Objects[i]
		terms := termsFor(o.Elems)
		idO := oracle.Insert(o.Interval.Start, o.Interval.End, terms...)
		idS := sh.Insert(o.Interval.Start, o.Interval.End, terms...)
		if idO != idS {
			t.Fatalf("insert %d: oracle id %d, sharded id %d", i, idO, idS)
		}
		if i%5 == 2 { // interleaved deletes
			victim := temporalir.ObjectID(i / 2)
			errO := oracle.Delete(victim)
			errS := sh.Delete(victim)
			if (errO == nil) != (errS == nil) {
				t.Fatalf("delete %d diverged: oracle %v, sharded %v", victim, errO, errS)
			}
		}
	}
	if ol, sl := oracle.Len(), sh.Len(); ol != sl {
		t.Fatalf("live count diverged: oracle %d, sharded %d", ol, sl)
	}
	queries := shardDiffQueries()
	assertShardParity(t, "grown", oracle, sh, queries)

	// Object lookup parity on a sample, including a tombstoned id.
	for _, id := range []temporalir.ObjectID{0, 7, temporalir.ObjectID(len(c.Objects) - 1)} {
		ivO, termsO, errO := oracle.Object(id)
		ivS, termsS, errS := sh.Object(id)
		if (errO == nil) != (errS == nil) || ivO != ivS || !reflect.DeepEqual(termsO, termsS) {
			t.Fatalf("Object(%d) diverged: (%v %v %v) vs (%v %v %v)", id, ivO, termsO, errO, ivS, termsS, errS)
		}
	}

	if _, err := sh.Compact(context.Background()); err != nil {
		t.Fatalf("sharded compact: %v", err)
	}
	if _, err := oracle.Compact(context.Background()); err != nil {
		t.Fatalf("oracle compact: %v", err)
	}
	assertShardParity(t, "grown-compacted", oracle, sh, queries)

	// Post-compaction inserts must continue the same id sequence.
	idO := oracle.Insert(100, 200, "t001")
	idS := sh.Insert(100, 200, "t001")
	if idO != idS {
		t.Fatalf("post-compaction insert ids diverged: %d vs %d", idO, idS)
	}
}

// TestShardedPersistRoundTrip saves a sharded engine and reloads it
// both sharded and single: all three must answer identically, and ids
// must continue the same sequence — the snapshot format is shared.
func TestShardedPersistRoundTrip(t *testing.T) {
	c := testutil.RandomCollection(shardDiffConfig)
	sh := shardedOver(t, c, temporalir.IRHintPerf, 4)
	for id := 0; id < len(c.Objects); id += 9 {
		if err := sh.Delete(temporalir.ObjectID(id)); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
	var buf bytes.Buffer
	if err := sh.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	saved := buf.Bytes()

	reSh, err := temporalir.LoadSharded(bytes.NewReader(saved), temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	reEng, err := temporalir.LoadEngine(bytes.NewReader(saved), temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	queries := shardDiffQueries()
	assertShardParity(t, "reloaded-sharded", reEng, reSh, queries)

	// Id continuity: all three hand out the same next id.
	a, b, c2 := sh.Insert(5, 6, "t000"), reSh.Insert(5, 6, "t000"), reEng.Insert(5, 6, "t000")
	if a != b || b != c2 {
		t.Fatalf("next ids diverged after reload: %d, %d, %d", a, b, c2)
	}

	// An Engine snapshot loads sharded too.
	buf.Reset()
	if err := reEng.Save(&buf); err != nil {
		t.Fatalf("engine save: %v", err)
	}
	fromEng, err := temporalir.LoadSharded(bytes.NewReader(buf.Bytes()), temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatalf("LoadSharded(engine snapshot): %v", err)
	}
	assertShardParity(t, "engine-snapshot-sharded", reEng, fromEng, queries[:40])
}

// TestShardedStats sanity-checks the coordinator surfaces: shard rows,
// extent pruning and the cumulative counters.
func TestShardedStats(t *testing.T) {
	c := testutil.RandomCollection(shardDiffConfig)
	sh := shardedOver(t, c, temporalir.TIF, 4)
	stats := sh.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats rows = %d, want 4", len(stats))
	}
	total := 0
	for i, st := range stats {
		if st.Shard != i {
			t.Fatalf("row %d has shard index %d", i, st.Shard)
		}
		total += st.Objects
		if st.Objects > 0 && !st.HasExtent {
			t.Fatalf("shard %d holds objects but reports no extent", i)
		}
	}
	if total != len(c.Objects) {
		t.Fatalf("shard objects sum to %d, want %d", total, len(c.Objects))
	}
	cs := sh.CoordinatorStats()
	if cs.Shards != 4 || cs.Partition != "time-range" {
		t.Fatalf("coordinator stats: %+v", cs)
	}
	// A query far outside the domain prunes every shard.
	if ids := sh.Search(1_000_000, 1_000_001); len(ids) != 0 {
		t.Fatalf("out-of-domain search returned %v", ids)
	}
	cs = sh.CoordinatorStats()
	if cs.Queries == 0 {
		t.Fatal("coordinator did not count the query")
	}
	if cs.ShardsPruned < 4 {
		t.Fatalf("out-of-domain query pruned %d shards, want 4", cs.ShardsPruned)
	}
}

// cancelConfig is the corpus of the cancellation tests: large enough
// that a batch over it is still running when the context fires.
var cancelConfig = testutil.CollectionConfig{N: 1500, DomainLo: 0, DomainHi: 20000, Dict: 25, MaxDesc: 6, Seed: 999}

// TestShardedCtxCancellation: a fired context is a hard error — the
// caller asked to stop — with and without the shard report.
func TestShardedCtxCancellation(t *testing.T) {
	sh := shardedOver(t, testutil.RandomCollection(cancelConfig), temporalir.TIF, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sh.SearchShardsCtx(ctx, 0, 20000, "t001"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scatter returned %v, want context.Canceled", err)
	}
	if _, err := sh.SearchCtx(ctx, 0, 20000, "t001"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SearchCtx returned %v, want context.Canceled", err)
	}
}

// TestShardedBatchNoSilentTruncation cancels a batch mid-flight: every
// row either carries its full result or the context error — no row is
// ever a silently truncated success.
func TestShardedBatchNoSilentTruncation(t *testing.T) {
	c := testutil.RandomCollection(cancelConfig)
	sh, oracle := shardedOver(t, c, temporalir.TIF, 4), engineOver(t, c, temporalir.TIF)
	rows := make([][]string, 64)
	for i := range rows {
		rows[i] = termsFor([]temporalir.ElemID{temporalir.ElemID(i % 25)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []temporalir.Result, 1)
	go func() { done <- sh.SearchTermsBatchCtx(ctx, 0, 20000, rows) }()
	time.Sleep(200 * time.Microsecond)
	cancel()
	results := <-done
	if len(results) != len(rows) {
		t.Fatalf("batch returned %d rows, want %d", len(results), len(rows))
	}
	completed, errored := 0, 0
	for i, r := range results {
		if r.Err != nil {
			errored++
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("row %d: error %v, want context.Canceled", i, r.Err)
			}
			continue
		}
		completed++
		want := oracle.Search(0, 20000, rows[i]...)
		if testutil.ResultChecksum(r.IDs) != testutil.ResultChecksum(want) {
			t.Fatalf("row %d returned success with truncated results: %v vs %v", i, r.IDs, want)
		}
	}
	t.Logf("batch after cancel: %d complete, %d errored", completed, errored)
}
