// Package exec is the concurrent query-execution layer: a bounded worker
// pool that runs the rows of a query batch and the shards of a sharded
// query side by side. A single query is never split across workers; each
// index answers it with one serial traversal.
//
// The pool follows a caller-runs design: the goroutine that submits work
// always participates, and up to Workers()-1 extra goroutines are borrowed
// from a global token budget with non-blocking acquisition. Two properties
// fall out of that design:
//
//   - Nesting never deadlocks. A batch row that scatters over shards finds
//     no free tokens when the pool is saturated and visits its shards on
//     its own goroutine.
//   - Total concurrency is bounded by Workers() regardless of how many
//     batches run at once, which is what lets the HTTP server cap its
//     in-flight queries independently of the engine's pool size.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Pool is a bounded worker pool. The zero value is not usable; construct
// with NewPool. A Pool is safe for concurrent use and is typically shared
// process-wide (one per Engine).
type Pool struct {
	workers int
	// tokens holds the loanable worker budget: Workers()-1 slots, because
	// the submitting goroutine is always worker zero. Sending acquires a
	// token, receiving releases it.
	tokens chan struct{}

	// Fan-out accounting, exported via Stats for the observability
	// layer. Counting is lock-free and off the per-item hot path: one
	// add per Map call plus one per borrowed helper.
	maps    atomic.Uint64
	items   atomic.Uint64
	helpers atomic.Uint64
}

// PoolStats is a monotonic snapshot of the pool's fan-out activity.
type PoolStats struct {
	// Maps counts fan-out invocations (Map/MapCtx calls that had more
	// than one item and more than one worker available).
	Maps uint64 `json:"maps"`
	// Items counts work items submitted across those invocations.
	Items uint64 `json:"items"`
	// Helpers counts goroutines actually borrowed from the token
	// budget; Maps with zero borrowed helpers ran caller-only.
	Helpers uint64 `json:"helpers"`
}

// Stats returns the pool's cumulative fan-out counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Maps:    p.maps.Load(),
		Items:   p.items.Load(),
		Helpers: p.helpers.Load(),
	}
}

// NewPool returns a pool running at most workers tasks concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0), the default the Engine uses.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// defaultPool is the process-wide pool, sized to GOMAXPROCS at start-up.
var defaultPool atomic.Pointer[Pool]

func init() { defaultPool.Store(NewPool(0)) }

// Default returns the process-wide pool: engines that never called
// SetParallelism run their batches and shard scatters on it, and the bulk
// index builds fill their divisions on it. Sharing one token budget keeps
// the process's total concurrency bounded, and a build nested in a
// fan-out that already holds the tokens runs on its caller's goroutine.
func Default() *Pool { return defaultPool.Load() }

// SetDefault replaces the process-wide pool and returns the one it
// replaced. Work already running keeps the pool it started with. It
// exists so a test can pin how wide everything on the default runs.
func SetDefault(p *Pool) *Pool { return defaultPool.Swap(p) }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Map runs fn(i) for every i in [0, n), on the calling goroutine plus any
// pool workers it can borrow, and returns when every call has finished.
// Items are claimed dynamically (work stealing via an atomic cursor), so
// uneven item costs still balance. fn must be safe for concurrent use.
func (p *Pool) Map(n int, fn func(i int)) {
	_ = p.mapInner(nil, n, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done no new
// item is started; items already running complete. It returns ctx.Err()
// when the batch was cut short, nil otherwise. Item-level code that wants
// finer-grained cancellation must watch ctx itself.
func (p *Pool) MapCtx(ctx context.Context, n int, fn func(i int)) error {
	return p.mapInner(ctx, n, fn)
}

func (p *Pool) mapInner(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	done := ctx != nil && ctx.Err() != nil
	if done {
		return ctx.Err()
	}
	if n == 1 || p.workers == 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			fn(i)
		}
		return nil
	}
	p.maps.Add(1)
	p.items.Add(uint64(n))
	var next atomic.Int64
	run := func() {
		for {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for helpers := 0; helpers < p.workers-1 && helpers < n-1; helpers++ {
		select {
		case p.tokens <- struct{}{}:
			p.helpers.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.tokens }()
				run()
			}()
		default:
			// Pool saturated: the caller still runs, so progress is
			// guaranteed without blocking on another batch's workers.
			helpers = p.workers // break
		}
	}
	run()
	wg.Wait()
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// RunBatch evaluates eval over every query concurrently, results[i]
// matching queries[i]. eval must be safe for concurrent use (every index
// in the family supports concurrent readers).
func RunBatch(p *Pool, queries []model.Query, eval func(model.Query) []model.ObjectID) [][]model.ObjectID {
	results := make([][]model.ObjectID, len(queries))
	p.Map(len(queries), func(i int) { results[i] = eval(queries[i]) })
	return results
}
