package temporalir_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	temporalir "repro"
	"repro/internal/testutil"
)

// TestCompactUnderConcurrency is the engine-level race test the issue
// asks for: repeated Compact racing SearchBatchCtx, Insert, Delete, Save
// and CompactStats. Run under -race it proves the generational swap
// never lets a reader observe a torn state; the assertions prove batches
// stay internally consistent (sorted rows) throughout.
func TestCompactUnderConcurrency(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[0]
	c := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()[:40]
	eng, err := temporalir.EngineFromCollection(c, temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatalf("EngineFromCollection: %v", err)
	}
	eng.SetParallelism(4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		select {
		case <-stop:
		default:
			t.Errorf(format, args...)
		}
	}

	wg.Add(1)
	go func() { // batch reader: rows must stay sorted ascending
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, r := range eng.SearchBatchCtx(context.Background(), queries) {
				if r.Err != nil {
					fail("batch row %d: %v", i, r.Err)
					return
				}
				for j := 1; j < len(r.IDs); j++ {
					if r.IDs[j-1] >= r.IDs[j] {
						fail("batch row %d not strictly ascending", i)
						return
					}
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // writer: inserts
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eng.Insert(temporalir.Timestamp(w.Config.DomainLo+int64(i%1000)),
				temporalir.Timestamp(w.Config.DomainLo+int64(i%1000+50)),
				fmt.Sprintf("e%d", i%w.Config.Dict))
		}
	}()
	wg.Add(1)
	go func() { // writer: deletes (unknown ids fine — error ignored)
		defer wg.Done()
		for id := temporalir.ObjectID(0); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.Delete(id % temporalir.ObjectID(len(c.Objects)*2))
		}
	}()
	wg.Add(1)
	go func() { // Save: must serialize consistent generations mid-compaction
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Save(io.Discard); err != nil {
				fail("Save: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // stats poller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.CompactStats()
		}
	}()

	for i := 0; i < 10; i++ {
		if _, err := eng.Compact(context.Background()); err != nil && !errors.Is(err, temporalir.ErrCompactionRunning) {
			t.Fatalf("Compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Final coherence: one more compaction drains everything and the
	// engine still answers queries consistently.
	if _, err := eng.Compact(context.Background()); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	if st := eng.CompactStats(); st.Tombstones != 0 || st.MemObjects != 0 {
		t.Fatalf("residue after final compact: %+v", st)
	}
}
