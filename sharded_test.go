package temporalir_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	temporalir "repro"
	"repro/internal/model"
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
func shardedOver(t *testing.T, c *temporalir.Collection, m temporalir.Method, shards int) *temporalir.Sharded {
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
func assertShardParity(t *testing.T, label string, oracle *temporalir.Engine, sh *temporalir.Sharded, queries []model.Query) {
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

// TestDifferentialSharded is the tentpole acceptance gate: a 4-shard
// engine must match the single-engine oracle's SHA-256 result digests
// across all 9 methods, at 0/25/50% deleted, before and after parallel
// compaction.
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
		m := m
		t.Run(string(m), func(t *testing.T) {
			for _, frac := range fractions {
				frac := frac
				t.Run(frac.name, func(t *testing.T) {
					oracle := engineOver(t, c, m)
					sh := shardedOver(t, c, m, 4)
					sh.SetParallelism(4)
					if ns := sh.NumShards(); ns != 4 {
						t.Fatalf("NumShards = %d, want 4", ns)
					}
					if frac.mod > 0 {
						for id := 0; id < len(c.Objects); id++ {
							if id%frac.mod != 1 {
								continue
							}
							if err := oracle.Delete(temporalir.ObjectID(id)); err != nil {
								t.Fatalf("oracle delete %d: %v", id, err)
							}
							if err := sh.Delete(temporalir.ObjectID(id)); err != nil {
								t.Fatalf("sharded delete %d: %v", id, err)
							}
						}
					}
					if ol, sl := oracle.Len(), sh.Len(); ol != sl {
						t.Fatalf("live count diverged: oracle %d, sharded %d", ol, sl)
					}
					assertShardParity(t, "pre-compaction", oracle, sh, queries)

					if _, err := oracle.Compact(context.Background()); err != nil {
						t.Fatalf("oracle compact: %v", err)
					}
					if _, err := sh.Compact(context.Background()); err != nil {
						t.Fatalf("sharded compact: %v", err)
					}
					// With tombstones present every shard has work, so the
					// parallel fan-out must have compacted all four; at del0
					// each shard legitimately no-ops.
					if st := sh.CompactStats(); frac.mod > 0 && st.Compactions < 4 {
						t.Fatalf("parallel compaction ran on %d shards, want 4", st.Compactions)
					}
					assertShardParity(t, "post-compaction", oracle, sh, queries)
				})
			}
		})
	}
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
