package temporalir_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	temporalir "repro"
	"repro/internal/testutil"
)

// Acceptance test for the generational write path: after deleting 50% of
// a seeded corpus, Compact must (a) leave per-query result checksums
// oracle-identical across all eight methods, and (b) reclaim SizeBytes
// to within 10% of an engine freshly built over the surviving objects.
func TestCompactAcceptance(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[0]
	c := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()
	for _, m := range allMethods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			eng, err := temporalir.EngineFromCollection(c, m, temporalir.Options{})
			if err != nil {
				t.Fatalf("EngineFromCollection: %v", err)
			}
			oracle := testutil.NewLifecycleOracle(c)
			// Delete every even id: 50% of the corpus.
			for id := temporalir.ObjectID(0); int(id) < len(c.Objects); id += 2 {
				if err := eng.Delete(id); err != nil {
					t.Fatalf("Delete(%d): %v", id, err)
				}
				oracle.Delete(id)
			}
			wantSum := testutil.WorkloadChecksum(oracle.QueryAll(queries))
			if got := checksumEngine(t, eng, queries); got != wantSum {
				t.Fatalf("pre-compaction checksum %s != oracle %s", got, wantSum)
			}

			st, err := eng.Compact(context.Background())
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if st.Tombstones != 0 || st.MemObjects != 0 {
				t.Fatalf("post-compact stats not drained: %+v", st)
			}
			if got := checksumEngine(t, eng, queries); got != wantSum {
				t.Fatalf("post-compaction checksum %s != oracle %s", got, wantSum)
			}
			if eng.Len() != oracle.Len() {
				t.Fatalf("Len after compact = %d, oracle %d", eng.Len(), oracle.Len())
			}

			// Size reclamation: compare against a fresh build over exactly
			// the surviving objects (densely re-id'd).
			live := &temporalir.Collection{DictSize: c.DictSize}
			for i := range c.Objects {
				if i%2 == 0 {
					continue
				}
				o := &c.Objects[i]
				live.AppendObject(o.Interval, o.Elems)
			}
			fresh, err := temporalir.EngineFromCollection(live, m, temporalir.Options{})
			if err != nil {
				t.Fatalf("fresh build: %v", err)
			}
			got, want := eng.SizeBytes(), fresh.SizeBytes()
			if diff := got - want; diff < -want/10 || diff > want/10 {
				t.Fatalf("SizeBytes after compact = %d, fresh build = %d (>10%% apart)", got, want)
			}
		})
	}
}

// checksumEngine folds the engine's batch results into a workload
// checksum comparable with the oracle's.
func checksumEngine(t *testing.T, eng *temporalir.Engine, queries []temporalir.Query) string {
	t.Helper()
	rows := make([][]temporalir.ObjectID, len(queries))
	for i, r := range eng.SearchBatchCtx(context.Background(), queries) {
		if r.Err != nil {
			t.Fatalf("batch row %d: %v", i, r.Err)
		}
		rows[i] = r.IDs
	}
	return testutil.WorkloadChecksum(rows)
}

// TestBuilderBuildDetaches is the regression test for the Builder
// aliasing bug: Build used to hand its internal coll/dict pointers to
// the Engine, so further Add calls silently mutated a live engine.
func TestBuilderBuildDetaches(t *testing.T) {
	b := temporalir.NewBuilder()
	b.Add(1, 5, "alpha")
	b.Add(3, 9, "alpha", "beta")
	eng, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	before := eng.Search(0, 10, "alpha")

	// Keep using the builder: neither the new object nor the new term may
	// leak into the already-built engine.
	b.Add(2, 8, "alpha", "gamma")
	if got := eng.Len(); got != 2 {
		t.Fatalf("engine Len changed after Builder.Add: %d", got)
	}
	if got := eng.Search(0, 10, "alpha"); !equalIDs(got, before) {
		t.Fatalf("engine results changed after Builder.Add: %v -> %v", before, got)
	}
	if got := eng.Search(0, 10, "gamma"); got != nil {
		t.Fatalf("term added to builder after Build is visible to engine: %v", got)
	}

	// The builder itself keeps working, and a second Build sees all three.
	eng2, err := b.Build(temporalir.TIF, temporalir.Options{})
	if err != nil {
		t.Fatalf("second Build: %v", err)
	}
	if got := eng2.Len(); got != 3 {
		t.Fatalf("second engine Len = %d, want 3", got)
	}
	if got := eng2.Search(0, 10, "gamma"); len(got) != 1 {
		t.Fatalf("second engine misses post-Build object: %v", got)
	}
	// And mutating the first engine leaves the second alone.
	eng.Insert(4, 6, "delta")
	if got := eng2.Search(0, 10, "delta"); got != nil {
		t.Fatalf("engines share state: %v", got)
	}
}

// TestReinsertAfterDelete pins the re-insert-after-delete fix: deleted
// ids are physically reclaimed by compaction (not tombstoned forever),
// later inserts get fresh ids, and Len/SizeBytes agree with a fresh
// build over the same logical content.
func TestReinsertAfterDelete(t *testing.T) {
	b := temporalir.NewBuilder()
	for i := 0; i < 30; i++ {
		b.Add(temporalir.Timestamp(i), temporalir.Timestamp(i+10), fmt.Sprintf("t%d", i%5))
	}
	eng, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for id := temporalir.ObjectID(0); id < 10; id++ {
		if err := eng.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
	if _, err := eng.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := eng.CompactStats(); st.Tombstones != 0 {
		t.Fatalf("tombstones not consumed by compaction: %+v", st)
	}

	// Re-insert: fresh ids, never a reused one.
	seen := map[temporalir.ObjectID]bool{}
	for i := 0; i < 10; i++ {
		id := eng.Insert(temporalir.Timestamp(i), temporalir.Timestamp(i+10), fmt.Sprintf("t%d", i%5))
		if id < 30 {
			t.Fatalf("Insert reused id %d from the compacted range", id)
		}
		if seen[id] {
			t.Fatalf("Insert returned duplicate id %d", id)
		}
		seen[id] = true
	}
	// Old ids remain permanently invalid.
	if _, _, err := eng.Object(3); err == nil {
		t.Fatal("compacted-away id 3 still resolves")
	}
	if err := eng.Delete(3); err == nil {
		t.Fatal("Delete of compacted-away id 3 did not error")
	}

	if _, err := eng.Compact(context.Background()); err != nil {
		t.Fatalf("second Compact: %v", err)
	}

	// After the second compaction the engine must agree with a fresh
	// build over the same logical content on Len and SizeBytes.
	fb := temporalir.NewBuilder()
	for i := 10; i < 30; i++ {
		fb.Add(temporalir.Timestamp(i), temporalir.Timestamp(i+10), fmt.Sprintf("t%d", i%5))
	}
	for i := 0; i < 10; i++ {
		fb.Add(temporalir.Timestamp(i), temporalir.Timestamp(i+10), fmt.Sprintf("t%d", i%5))
	}
	fresh, err := fb.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatalf("fresh Build: %v", err)
	}
	if eng.Len() != fresh.Len() {
		t.Fatalf("Len = %d, fresh build = %d", eng.Len(), fresh.Len())
	}
	got, want := eng.SizeBytes(), fresh.SizeBytes()
	if diff := got - want; diff < -want/10 || diff > want/10 {
		t.Fatalf("SizeBytes = %d, fresh build = %d (>10%% apart)", got, want)
	}
}

// TestCompactSingleFlightAndStats covers the engine-level surface:
// ErrCompactionRunning, the epoch counter, and policy installation.
func TestCompactSingleFlightAndStats(t *testing.T) {
	b := temporalir.NewBuilder()
	for i := 0; i < 50; i++ {
		b.Add(temporalir.Timestamp(i), temporalir.Timestamp(i+5), "x")
	}
	eng, err := b.Build(temporalir.TIFSlicing, temporalir.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st := eng.CompactStats()
	if st.Epoch == 0 || st.Compactions != 0 || st.InProgress {
		t.Fatalf("initial stats: %+v", st)
	}

	eng.SetCompactionPolicy(temporalir.CompactionPolicy{MaxMemObjects: 3})
	for i := 0; i < 3; i++ {
		eng.Insert(temporalir.Timestamp(i), temporalir.Timestamp(i+1), "x")
	}
	waitUntil(t, func() bool {
		st := eng.CompactStats()
		return st.Compactions >= 1 && st.MemObjects == 0 && !st.InProgress
	})
	if got := eng.Len(); got != 53 {
		t.Fatalf("Len after auto-compaction = %d, want 53", got)
	}

	// Canceled context surfaces the context error and changes nothing.
	eng.SetCompactionPolicy(temporalir.CompactionPolicy{})
	if err := eng.Delete(0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Compact(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact(canceled) = %v, want context.Canceled", err)
	}
	if st := eng.CompactStats(); st.Tombstones != 1 {
		t.Fatalf("canceled compact consumed tombstones: %+v", st)
	}
}

// waitUntil polls cond for up to five seconds — for observing
// policy-triggered background compactions.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func equalIDs(a, b []temporalir.ObjectID) bool {
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
