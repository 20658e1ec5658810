package temporalir

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// buildDeleteEngine creates a small engine where object 1 carries a
// unique marker term, so its visibility after Delete is easy to probe.
func buildDeleteEngine(t *testing.T, m Method) *Engine {
	t.Helper()
	b := NewBuilder()
	b.Add(10, 20, "alpha", "shared")
	b.Add(15, 40, "marker", "shared")
	b.Add(30, 60, "beta", "shared")
	e, err := b.Build(m, Options{})
	if err != nil {
		t.Fatalf("build %s: %v", m, err)
	}
	return e
}

// TestDeleteHidesObjectAcrossMethods verifies that after Delete, every
// query surface of the engine — Search, SearchTopKCtx, TimelineCtx —
// stops returning the tombstoned object, for every index method,
// including methods whose index-level Delete is partial or absent.
func TestDeleteHidesObjectAcrossMethods(t *testing.T) {
	methods := append(Methods(), TIF)
	for _, m := range methods {
		t.Run(string(m), func(t *testing.T) {
			e := buildDeleteEngine(t, m)

			if got := e.Search(0, 100, "marker"); len(got) != 1 || got[0] != 1 {
				t.Fatalf("pre-delete Search = %v, want [1]", got)
			}
			if e.Len() != 3 {
				t.Fatalf("pre-delete Len = %d, want 3", e.Len())
			}

			if err := e.Delete(1); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			// Idempotent double delete.
			if err := e.Delete(1); err != nil {
				t.Fatalf("second Delete: %v", err)
			}
			if e.Len() != 2 {
				t.Fatalf("post-delete Len = %d, want 2", e.Len())
			}

			if got := e.Search(0, 100, "marker"); len(got) != 0 {
				t.Errorf("Search still returns tombstoned object: %v", got)
			}
			for _, id := range e.Search(0, 100, "shared") {
				if id == 1 {
					t.Errorf("Search(shared) still returns tombstoned object 1")
				}
			}
			top, _ := e.SearchTopKCtx(context.Background(), 0, 100, 10, "shared")
			for _, r := range top {
				if r.ID == 1 {
					t.Errorf("SearchTopKCtx still returns tombstoned object 1")
				}
			}
			if _, _, err := e.Object(1); err == nil {
				t.Errorf("Object still resolves tombstoned object 1")
			}
			tl, _ := e.TimelineCtx(context.Background(), 0, 100, 4, "marker")
			for _, b := range tl {
				if b.Count != 0 || b.Mass != 0 {
					t.Errorf("Timeline still counts tombstoned object: %+v", b)
				}
			}
		})
	}
}

// TestEngineConcurrentSearchInsert drives reads (including the ranked
// path, which lazily initializes the shared scorer) against concurrent
// writes. Run under -race this is the regression test for the
// scorer-initialization data race and for unguarded Engine mutation.
func TestEngineConcurrentSearchInsert(t *testing.T) {
	e := buildDeleteEngine(t, IRHintPerf)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				switch w % 4 {
				case 0:
					e.Search(0, 100, "shared")
				case 1:
					_, _ = e.SearchTopKCtx(context.Background(), 0, 100, 5, "shared")
				case 2:
					e.Insert(Timestamp(i), Timestamp(i+10), fmt.Sprintf("w%d-%d", w, i), "shared")
				case 3:
					_, _ = e.TimelineCtx(context.Background(), 0, 100, 8, "shared")
					e.SizeBytes()
					e.Len()
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}
