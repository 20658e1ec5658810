package temporalir_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	temporalir "repro"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// forceBitmapPaths lowers the container thresholds so the seeded
// differential workloads (hundreds of objects, not thousands) exercise
// the bitmap and galloping paths, restoring the production values when
// the test ends.
func forceBitmapPaths(t *testing.T) {
	t.Helper()
	oldCutoff, oldRatio := postings.BitmapCutoff, postings.GallopRatio
	postings.BitmapCutoff = 8
	postings.GallopRatio = 2
	t.Cleanup(func() {
		postings.BitmapCutoff = oldCutoff
		postings.GallopRatio = oldRatio
	})
}

// routedAndAllMethods is the differential line-up including the
// adaptive meta-method.
func routedAndAllMethods() []string {
	return append(methodNames(), string(temporalir.Routed))
}

// TestDifferentialBitmapContainers re-runs the full cross-method
// differential harness — every method plus the routed meta-method, all
// workloads, boundary sweep included — with the container thresholds
// forced low, so every intersection goes through the bitmap and
// galloping kernels and must still be byte-identical (SHA-256 workload
// checksums) to the brute-force oracle.
func TestDifferentialBitmapContainers(t *testing.T) {
	forceBitmapPaths(t)
	for _, w := range testutil.DefaultDifferentialWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			testutil.CheckDifferential(t, w, routedAndAllMethods(),
				func(name string, c *temporalir.Collection) model.Querier {
					ix, err := temporalir.NewIndex(temporalir.Method(name), c, temporalir.Options{})
					if err != nil {
						t.Fatalf("building %s: %v", name, err)
					}
					return ix
				})
		})
	}
}

// TestDifferentialRouted runs the routed meta-method (production
// thresholds) through the standard harness: whatever the router picks
// per query, results must match the oracle checksum-for-checksum.
func TestDifferentialRouted(t *testing.T) {
	for _, w := range testutil.DefaultDifferentialWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			testutil.CheckDifferential(t, w, []string{string(temporalir.Routed)},
				func(name string, c *temporalir.Collection) model.Querier {
					ix, err := temporalir.NewIndex(temporalir.Method(name), c, temporalir.Options{})
					if err != nil {
						t.Fatalf("building %s: %v", name, err)
					}
					return ix
				})
		})
	}
}

// TestDifferentialDeletedFractions checks the bitmap-forced and routed
// paths across deletion lifecycles: with 0%, 25% and 50% of the corpus
// tombstoned, the engine's workload checksum must match the lifecycle
// oracle both before and after compaction physically drops the dead
// objects.
func TestDifferentialDeletedFractions(t *testing.T) {
	forceBitmapPaths(t)
	w := testutil.DefaultDifferentialWorkloads()[0]
	c := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()
	methods := []temporalir.Method{
		temporalir.TIF, temporalir.TIFHintMerge, temporalir.TIFHintSlicing,
		temporalir.IRHintPerf, temporalir.Routed,
	}
	for _, frac := range []int{0, 25, 50} {
		for _, m := range methods {
			frac, m := frac, m
			t.Run(fmt.Sprintf("%s/deleted-%d%%", m, frac), func(t *testing.T) {
				eng, err := temporalir.EngineFromCollection(c, m, temporalir.Options{})
				if err != nil {
					t.Fatalf("EngineFromCollection: %v", err)
				}
				oracle := testutil.NewLifecycleOracle(c)
				n := len(c.Objects) * frac / 100
				for i := 0; i < n; i++ {
					victim := temporalir.ObjectID((i * 13) % len(c.Objects))
					if oracle.Delete(victim) {
						if err := eng.Delete(victim); err != nil {
							t.Fatalf("Delete(%d): %v", victim, err)
						}
					}
				}
				wantSum := testutil.WorkloadChecksum(oracle.QueryAll(queries))
				if got := checksumEngine(t, eng, queries); got != wantSum {
					t.Fatalf("tombstoned checksum mismatch: %s != %s", got, wantSum)
				}
				if _, err := eng.Compact(context.Background()); err != nil {
					t.Fatalf("Compact: %v", err)
				}
				if got := checksumEngine(t, eng, queries); got != wantSum {
					t.Fatalf("post-compaction checksum mismatch: %s != %s", got, wantSum)
				}
				if eng.Len() != oracle.Len() {
					t.Fatalf("Len = %d, oracle %d", eng.Len(), oracle.Len())
				}
			})
		}
	}
}

// TestRoutedEngineBasics covers the routed engine surface: sub-method
// exposure, decision counting across queries, and construction errors
// (self-routing, duplicates, unknown sub-methods).
func TestRoutedEngineBasics(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[0]
	c := testutil.RandomCollection(w.Config)
	eng, err := temporalir.EngineFromCollection(c, temporalir.Routed, temporalir.Options{})
	if err != nil {
		t.Fatalf("EngineFromCollection: %v", err)
	}
	want := temporalir.DefaultRoutedMethods()
	got := eng.RoutedMethods()
	if len(got) != len(want) {
		t.Fatalf("RoutedMethods = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RoutedMethods[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	queries := w.WorkloadQueries()
	for _, q := range queries {
		terms := make([]string, len(q.Elems))
		for i, e := range q.Elems {
			terms[i] = fmt.Sprintf("e%d", e)
		}
		eng.Search(q.Interval.Start, q.Interval.End, terms...)
	}
	var total uint64
	for _, n := range eng.RouteDecisions() {
		total += n
	}
	// Unknown terms short-circuit before the index; only resolvable
	// queries reach the router, so the tally is positive but need not
	// equal len(queries).
	if total == 0 {
		t.Fatal("no routing decisions recorded after a full workload")
	}

	// A non-routed engine exposes no routing surface.
	plain, err := temporalir.EngineFromCollection(c, temporalir.TIF, temporalir.Options{})
	if err != nil {
		t.Fatalf("EngineFromCollection(TIF): %v", err)
	}
	if plain.RoutedMethods() != nil || plain.RouteDecisions() != nil {
		t.Fatal("non-routed engine exposes routing state")
	}

	// Construction errors.
	for _, bad := range [][]temporalir.Method{
		{temporalir.Routed},
		{temporalir.TIF, temporalir.TIF},
		{temporalir.Method("nope")},
	} {
		if _, err := temporalir.NewIndex(temporalir.Routed, c, temporalir.Options{RoutedMethods: bad}); err == nil {
			t.Errorf("NewIndex(Routed, %v) succeeded, want error", bad)
		}
	}
}

// TestRoutedCompactRace races routed queries against compaction swaps:
// the router must survive generation replacement (the engine re-installs
// it on every rebuild) with decision counts strictly growing and every
// concurrent result matching the oracle checksum.
func TestRoutedCompactRace(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[1]
	c := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()
	eng, err := temporalir.EngineFromCollection(c, temporalir.Routed, temporalir.Options{})
	if err != nil {
		t.Fatalf("EngineFromCollection: %v", err)
	}
	oracle := testutil.NewLifecycleOracle(c)
	wantSum := testutil.WorkloadChecksum(oracle.QueryAll(queries))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				if !first {
					// Always complete at least one full pass, so the
					// decision-tally assertion below has data even when
					// the compactions finish before the workers spin up.
					select {
					case <-stop:
						return
					default:
					}
				}
				rows := make([][]temporalir.ObjectID, len(queries))
				for i, res := range eng.SearchBatchCtx(context.Background(), queries) {
					if res.Err != nil {
						errs <- res.Err.Error()
						return
					}
					rows[i] = res.IDs
				}
				if got := testutil.WorkloadChecksum(rows); got != wantSum {
					select {
					case errs <- got:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Compact(context.Background()); err != nil {
			t.Fatalf("Compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case got := <-errs:
		t.Fatalf("concurrent routed checksum mismatch: %s != %s", got, wantSum)
	default:
	}
	// The router survived the swaps: decisions kept accumulating on the
	// one shared instance.
	var total uint64
	for _, n := range eng.RouteDecisions() {
		total += n
	}
	if total == 0 {
		t.Fatal("router lost its decision tally across compactions")
	}
}
