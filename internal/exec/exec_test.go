package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

func TestMapRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 100} {
			var hits sync.Map
			var count atomic.Int64
			p.Map(n, func(i int) {
				if _, loaded := hits.LoadOrStore(i, true); loaded {
					t.Errorf("workers=%d n=%d: item %d ran twice", workers, n, i)
				}
				count.Add(1)
			})
			if int(count.Load()) != n {
				t.Fatalf("workers=%d n=%d: ran %d items", workers, n, count.Load())
			}
		}
	}
}

func TestMapNestedDoesNotDeadlock(t *testing.T) {
	p := NewPool(4)
	var count atomic.Int64
	p.Map(8, func(i int) {
		p.Map(8, func(j int) { count.Add(1) })
	})
	if count.Load() != 64 {
		t.Fatalf("nested map ran %d inner items, want 64", count.Load())
	}
}

func TestMapCtxStopsIssuingWork(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	err := p.MapCtx(ctx, 1000, func(i int) {
		if count.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count.Load() >= 1000 {
		t.Fatalf("cancellation did not stop the batch (ran %d items)", count.Load())
	}
}

func TestMapCtxAlreadyCancelled(t *testing.T) {
	p := NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := p.MapCtx(ctx, 5, func(int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("item ran despite pre-cancelled context")
	}
}

func TestRunBatchMatchesSerial(t *testing.T) {
	p := NewPool(4)
	queries := make([]model.Query, 50)
	for i := range queries {
		queries[i] = model.Query{Interval: model.NewInterval(int64(i), int64(i+10))}
	}
	eval := func(q model.Query) []model.ObjectID {
		return []model.ObjectID{model.ObjectID(q.Interval.Start), model.ObjectID(q.Interval.End)}
	}
	results := RunBatch(p, queries, eval)
	if len(results) != len(queries) {
		t.Fatalf("got %d results", len(results))
	}
	for i, ids := range results {
		if want := eval(queries[i]); !model.EqualIDs(ids, want) {
			t.Fatalf("result %d: got %v want %v", i, ids, want)
		}
	}
}
