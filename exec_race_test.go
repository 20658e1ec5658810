package temporalir_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	temporalir "repro"
	"repro/internal/testutil"
)

// Concurrency tests for the batch executor: SearchBatchCtx
// and SearchCtx racing against Insert, Delete and Save. Run under -race
// in CI; a torn read of a shared postings list, or a batch observing a
// half-applied mutation, shows up as a race report or as a result
// containing an id the snapshot semantics forbid.

func raceEngine(t *testing.T, m temporalir.Method) *temporalir.Engine {
	t.Helper()
	b := temporalir.NewBuilder()
	for i := 0; i < 200; i++ {
		s := temporalir.Timestamp(i * 7 % 1000)
		b.Add(s, s+temporalir.Timestamp(i%50), "common", fmt.Sprintf("t%02d", i%20))
	}
	eng, err := b.Build(m, temporalir.Options{})
	if err != nil {
		t.Fatalf("building %s: %v", m, err)
	}
	return eng
}

// TestSearchBatchUnderMutation hammers SearchBatchCtx while writers insert,
// delete and snapshot. Batches hold the read lock for their whole
// lifetime, so each batch must see a consistent snapshot: sorted,
// duplicate-free rows with no tombstoned ids.
func TestSearchBatchUnderMutation(t *testing.T) {
	for _, m := range []temporalir.Method{temporalir.IRHintPerf, temporalir.TIFHintMerge, temporalir.TIFSlicing} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			eng := raceEngine(t, m)
			eng.SetParallelism(4)
			queries := make([]temporalir.Query, 40)
			for i := range queries {
				s := temporalir.Timestamp(i * 13 % 900)
				queries[i] = temporalir.Query{Interval: temporalir.NewInterval(s, s+60)}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // inserter
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s := temporalir.Timestamp(i % 1000)
					eng.Insert(s, s+10, "common", "fresh")
				}
			}()
			go func() { // deleter
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = eng.Delete(temporalir.ObjectID(i % 200))
				}
			}()
			go func() { // snapshotter
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := eng.Save(io.Discard); err != nil {
						t.Errorf("Save: %v", err)
						return
					}
				}
			}()
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				for _, r := range eng.SearchBatchCtx(context.Background(), queries) {
					if r.Err != nil {
						t.Fatalf("batch row error: %v", r.Err)
					}
					for k := 1; k < len(r.IDs); k++ {
						if r.IDs[k] <= r.IDs[k-1] {
							t.Fatalf("row not strictly ascending: %v", r.IDs)
						}
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestSearchCtxUnderMutation interleaves context-aware single searches —
// some timing out, some completing — with writers, and checks that
// completed results stay canonical and cancelled calls report ctx errors.
func TestSearchCtxUnderMutation(t *testing.T) {
	eng := raceEngine(t, temporalir.IRHintPerf)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := temporalir.Timestamp(i % 1000)
			eng.Insert(s, s+5, "common")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.Delete(temporalir.ObjectID(i % 100))
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		if i%5 == 4 {
			// A context that fires immediately: must report its error.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := eng.SearchCtx(ctx, 0, 900, "common"); err == nil {
				t.Fatal("cancelled SearchCtx returned nil error")
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ids, err := eng.SearchCtx(ctx, 0, 900, "common")
		cancel()
		if err != nil {
			continue // a slow box may time out; that is a valid outcome
		}
		got := testutil.Canonical(ids)
		if len(got) != len(ids) {
			t.Fatalf("SearchCtx result not canonical: %d ids, %d canonical", len(ids), len(got))
		}
	}
	close(stop)
	wg.Wait()
}

// TestSearchBatchCtxCancellation cancels a batch mid-flight and checks
// the row invariant: every row either carries the ctx error with nil
// IDs, or a clean result — never a mixed or torn state.
func TestSearchBatchCtxCancellation(t *testing.T) {
	eng := raceEngine(t, temporalir.TIFHintMerge)
	eng.SetParallelism(2)
	queries := make([]temporalir.Query, 500)
	for i := range queries {
		s := temporalir.Timestamp(i % 900)
		queries[i] = temporalir.Query{Interval: temporalir.NewInterval(s, s+80)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	results := eng.SearchBatchCtx(ctx, queries)
	var done, cut int
	for i, r := range results {
		switch {
		case r.Err != nil && r.IDs == nil:
			cut++
		case r.Err == nil:
			done++
		default:
			t.Fatalf("row %d in mixed state: %+v", i, r)
		}
	}
	if done+cut != len(queries) {
		t.Fatalf("done=%d cut=%d of %d", done, cut, len(queries))
	}
	// Pre-cancelled: every row must carry the error.
	preCtx, preCancel := context.WithCancel(context.Background())
	preCancel()
	results = eng.SearchBatchCtx(preCtx, queries[:10])
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("pre-cancelled batch row %d has nil error", i)
		}
	}
}
