package temporalir

import (
	"context"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/maint"
	"repro/internal/model"
	"repro/internal/obs"
)

// Engine-level concurrent execution: batched searches over the bounded
// worker pool of internal/exec, and context-aware single searches. Every
// query runs its index's one serial body; the parallelism is across
// batch rows (here) and across shards (Sharded's scatter), never inside
// one query.
//
// Concurrency discipline: every batch entry point loads one generation
// snapshot and fans out over it. The snapshot is immutable — writers
// publish new generations instead of mutating it — so workers run
// without any lock and a batch sees one consistent view no matter how
// many inserts, deletes or compactions land mid-flight. Only term
// resolution takes the (tiny) dictionary read lock, once per batch.

// Result is one row of a batch search: the matching ids in ascending
// order, or the error that prevented the query from running (today only
// context cancellation or timeout).
type Result struct {
	IDs []ObjectID
	Err error
}

// atomicPool holds the engine's replaceable worker pool.
type atomicPool = atomic.Pointer[exec.Pool]

// SetParallelism replaces the engine's worker pool with one of the given
// size (n <= 0 restores the GOMAXPROCS default). It bounds how many batch
// rows run at once; in-flight batches keep the pool they started with.
func (e *Engine) SetParallelism(n int) {
	e.pool.Store(exec.NewPool(n))
}

// executor returns the engine's pool: the process-wide exec.Default —
// sized to GOMAXPROCS and shared, so the process's concurrency stays
// bounded however many engines run batches at once — unless
// SetParallelism installed one.
func (e *Engine) executor() *exec.Pool {
	if p := e.pool.Load(); p != nil {
		return p
	}
	return exec.Default()
}

// PoolStats returns the cumulative fan-out counters of the engine's
// current worker pool. The counters reset when SetParallelism swaps the
// pool; scrape-time consumers should treat them as best-effort. On the
// process-wide default they also count every engine's fan-outs and the
// index builds' parallel passes.
func (e *Engine) PoolStats() exec.PoolStats {
	return e.executor().Stats()
}

// runQuery evaluates one query against a generation snapshot, returning
// externally-translated ids in ascending order.
func runQuery(g *maint.Generation, q Query) []ObjectID {
	ids := g.Query(q)
	out := finishIDs(g, ids, q.Trace)
	q.Trace.AddResults(len(out))
	return out
}

// SearchBatch evaluates many element-id queries concurrently over the
// engine's pool, one row per worker. results[i] corresponds to
// queries[i]; ids are in ascending order, so a batch result is
// byte-identical to running Query serially. The whole
// batch runs against one generation snapshot: mutations landing
// mid-batch are invisible to it, and the batch never blocks them.
func (e *Engine) SearchBatch(queries []Query) []Result {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchBatchCtx
	return e.SearchBatchCtx(context.Background(), queries)
}

// SearchBatchCtx is SearchBatch with cooperative cancellation: queries
// not yet started when ctx fires are marked with Err = ctx.Err() and nil
// IDs; queries already running complete normally.
func (e *Engine) SearchBatchCtx(ctx context.Context, queries []Query) []Result {
	tr := obs.TraceFromContext(ctx)
	tr.SetBatch(len(queries))
	return e.runBatch(ctx, len(queries), func(i int) (Query, bool) {
		q := queries[i]
		if q.Trace == nil {
			// The batch rows share the context trace; the accumulators
			// are atomic, so concurrent rows record safely.
			q.Trace = tr
		}
		return q, true
	})
}

// runBatch evaluates n rows over the pool against one generation
// snapshot. row(i) returns row i's query, or false for a row that
// resolves to an empty result without running. Rows not started when ctx
// fires carry Err = ctx.Err() and nil IDs.
func (e *Engine) runBatch(ctx context.Context, n int, row func(i int) (Query, bool)) []Result {
	g := e.snapshot()
	pool := e.executor()
	results := make([]Result, n)
	started := make([]bool, n)
	_ = pool.MapCtx(ctx, n, func(i int) {
		started[i] = true
		if q, ok := row(i); ok {
			results[i] = Result{IDs: runQuery(g, q)}
		}
	})
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !started[i] {
				results[i] = Result{Err: err}
			}
		}
	}
	return results
}

// The context-aware single queries run on the caller's goroutine and
// check ctx at the stage boundaries the trace marks (plan, index query,
// sort/translate, end): a fired ctx returns ctx.Err(), never a result,
// within one stage. Until then the query holds its caller — and the HTTP
// server's admission slot, so MaxInFlight bounds evaluations.

// SearchCtx is Search with cancellation and timeout support.
func (e *Engine) SearchCtx(ctx context.Context, start, end Timestamp, terms ...string) ([]ObjectID, error) {
	g, q, err := e.planCtx(ctx, start, end, terms)
	if g == nil {
		return nil, err
	}
	ids := g.Query(q)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := finishIDs(g, ids, q.Trace)
	q.Trace.AddResults(len(out))
	return unlessDone(ctx, out)
}

// SearchTopKCtx is SearchTopK with cancellation and timeout support.
func (e *Engine) SearchTopKCtx(ctx context.Context, start, end Timestamp, k int, terms ...string) ([]ScoredResult, error) {
	g, q, err := e.planCtx(ctx, start, end, terms)
	if g == nil {
		return nil, err
	}
	results := rankTopK(g, q, k, q.Trace)
	out := make([]ScoredResult, len(results))
	for i, r := range results {
		out[i] = ScoredResult{ID: g.ExternalID(r.ID), Score: r.Score}
	}
	q.Trace.AddResults(len(out))
	return unlessDone(ctx, out)
}

// TimelineCtx is Timeline with cancellation and timeout support.
func (e *Engine) TimelineCtx(ctx context.Context, start, end Timestamp, buckets int, terms ...string) ([]TimelineBucket, error) {
	g, q, err := e.planCtx(ctx, start, end, terms)
	if g == nil {
		return nil, err
	}
	out := aggregateTimeline(g, q, buckets, q.Trace)
	q.Trace.AddResults(len(out))
	return unlessDone(ctx, out)
}

// planCtx is the plan stage of the context-aware queries: it resolves
// the terms and pins the generation the query runs against. A nil
// generation means there is nothing to run: ctx fired (err is set), or a
// term is unknown and the conjunction is empty (err is nil).
func (e *Engine) planCtx(ctx context.Context, start, end Timestamp, terms []string) (*maint.Generation, Query, error) {
	if err := ctx.Err(); err != nil {
		return nil, Query{}, err
	}
	tr := obs.TraceFromContext(ctx)
	elems, ok := e.resolveTermsTraced(tr, terms)
	if err := ctx.Err(); err != nil || !ok {
		return nil, Query{}, err
	}
	return e.snapshot(), Query{Interval: model.Canon(start, end), Elems: model.NormalizeElems(elems), Trace: tr}, nil
}

// unlessDone returns v, or ctx.Err() and no result once ctx has fired.
func unlessDone[T any](ctx context.Context, v []T) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// SearchTermsBatch resolves each row of terms against the dictionary and
// evaluates the resulting queries as one batch — the string-surface
// convenience over SearchBatch. Rows with unknown terms resolve to empty
// results, matching Search.
func (e *Engine) SearchTermsBatch(start, end Timestamp, termRows [][]string) []Result {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchTermsBatchCtx
	return e.SearchTermsBatchCtx(context.Background(), start, end, termRows)
}

// SearchTermsBatchCtx is SearchTermsBatch with cooperative cancellation,
// following the SearchBatchCtx row contract: rows not started when ctx
// fires carry Err = ctx.Err() and nil IDs.
func (e *Engine) SearchTermsBatchCtx(ctx context.Context, start, end Timestamp, termRows [][]string) []Result {
	tr := obs.TraceFromContext(ctx)
	tr.SetBatch(len(termRows))
	queries, known := e.planTermRows(tr, start, end, termRows)
	return e.runBatch(ctx, len(queries), func(i int) (Query, bool) { return queries[i], known[i] })
}

// planTermRows resolves every row's terms against the dictionary under
// one read lock (and one plan span), building the batch queries. Rows
// with unknown terms are marked known=false and resolve to empty
// results, matching Search.
func (e *Engine) planTermRows(tr *obs.Trace, start, end Timestamp, termRows [][]string) (queries []Query, known []bool) {
	defer tr.StartStage(obs.StagePlan).End()
	iv := model.Canon(start, end)
	queries = make([]Query, len(termRows))
	known = make([]bool, len(termRows))
	e.dmu.RLock()
	defer e.dmu.RUnlock()
	for i, terms := range termRows {
		var elems []ElemID
		elems, known[i] = e.lookupAllLocked(terms)
		queries[i] = Query{Interval: iv, Elems: model.NormalizeElems(elems), Trace: tr}
	}
	return queries, known
}
