package temporalir

import (
	"context"
	"sync/atomic"

	"repro/internal/aggregate"
	"repro/internal/exec"
	"repro/internal/maint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/shard"
)

// Query execution. Every query kind has one body and one spelling that
// takes the caller's context (search has a second, SearchShardsCtx, that
// also returns the store plan). Only Search, kept ctx-less because the
// benchmark's engine interface names it, runs SearchCtx's body under
// context.Background(). The body resolves the terms once against the
// shared dictionary (plan span), loads the engine's view — every
// store's generation, one instant of the whole engine, in one atomic
// load — and then evaluates on it:
//
//   - A one-store engine runs the store's query on the caller's
//     goroutine: no planning, scatter or merge, and no per-query slices.
//   - Otherwise it selects the stores whose generation's extent can
//     overlap the interval, fans out over the worker pool (scatter span)
//     and merges the stores' answers (merge span).
//
// Every query runs its index's one serial body; the parallelism is
// across stores and across batch rows, never inside one query.
//
// Every planned store runs to completion under the caller's context, so
// an answer is either complete or an error: a fired context fails the
// whole query with ctx.Err().
//
// A batch loads the view once and runs every row over the pool against
// it, so a batch sees one instant however many inserts, deletes or
// compactions land mid-flight. Only term resolution takes the (tiny)
// dictionary read lock, once per batch.

// Result is one row of a batch search: the matching ids in ascending
// order, or the error that prevented the query from running (context
// cancellation or timeout).
type Result struct {
	IDs []ObjectID
	Err error
}

// ScoredResult is one ranked hit of SearchTopKCtx.
type ScoredResult struct {
	ID    ObjectID
	Score float64
}

// TimelineBucket is one row of TimelineCtx's temporal histogram.
type TimelineBucket struct {
	Start Timestamp
	End   Timestamp
	Count int   // matching objects alive in this bucket
	Mass  int64 // matched lifespan time units falling in this bucket
}

// ShardReport describes how the coordinator executed one query; see
// shard.Report.
type ShardReport = shard.Report

// atomicPool holds the engine's replaceable worker pool.
type atomicPool = atomic.Pointer[exec.Pool]

// SetParallelism replaces the engine's worker pool with one of the given
// size; n <= 0 restores the shared process-wide default. It bounds how
// many stores, batch rows and compactions run at once; in-flight
// queries keep the pool they started with.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		e.pool.Store(nil)
		return
	}
	e.pool.Store(exec.NewPool(n))
}

// executor returns the engine's pool: the process-wide exec.Default —
// sized to GOMAXPROCS and shared, so the process's concurrency stays
// bounded however many engines run at once — unless SetParallelism
// installed one.
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
func (e *Engine) PoolStats() exec.PoolStats { return e.executor().Stats() }

// oneStore is the report of a query that ran on the only store.
var oneStore = ShardReport{Planned: 1}

// single returns the generation a query runs on when it skips plan,
// scatter and merge — the only store's in view — and counts the query;
// it returns nil when the engine has several stores.
func (e *Engine) single(view []*maint.Generation) *maint.Generation {
	if len(view) > 1 {
		return nil
	}
	e.queries.Add(1)
	return view[0]
}

// resolve is the plan stage every query kind shares: it resolves the
// terms under the dictionary lock and builds the query. ok is false when
// there is nothing to evaluate: ctx fired (err is set), or a term is
// unknown and the conjunction is empty (err is nil).
func (e *Engine) resolve(ctx context.Context, start, end Timestamp, terms []string) (Query, bool, error) {
	if err := ctx.Err(); err != nil {
		return Query{}, false, err
	}
	tr := obs.TraceFromContext(ctx)
	elems, ok := e.resolveTermsTraced(tr, terms)
	if err := ctx.Err(); err != nil || !ok {
		return Query{}, false, err
	}
	return Query{Interval: model.Canon(start, end), Elems: model.NormalizeElems(elems), Trace: tr}, true, nil
}

// unresolved is the report of a query resolve declined: nothing ran,
// and an unknown term prunes every store.
func (e *Engine) unresolved(err error) ShardReport {
	if err != nil {
		return ShardReport{}
	}
	return ShardReport{Pruned: len(e.set.Stores())}
}

// gather plans q over view — a generation's extent covers every object
// it stores, so a store whose extent misses q's interval holds no match
// and is pruned — evaluates q on every planned store over the pool
// (scatter span) and merges their answers (merge span). Every planned
// store runs to completion; a fired ctx fails the whole gather with
// ctx.Err().
func gather[T any](ctx context.Context, e *Engine, q Query, view []*maint.Generation, eval func(g *maint.Generation) T, merge func(parts []T) T) (T, ShardReport, error) {
	var planned []int
	for i, g := range view {
		if x, ok := g.Extent(); ok && x.Overlaps(q.Interval) {
			planned = append(planned, i)
		}
	}
	rep := ShardReport{Planned: len(planned), Pruned: len(view) - len(planned)}
	e.queries.Add(1)
	e.shardsPruned.Add(uint64(rep.Pruned))
	parts := make([]T, len(planned))
	if len(planned) > 0 {
		span := q.Trace.StartStage(obs.StageScatter) // lint:span-ok straight-line: MapCtx returns on every path and End immediately follows it
		_ = e.executor().MapCtx(ctx, len(planned), func(p int) { parts[p] = eval(view[planned[p]]) })
		span.End()
	}
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, rep, err
	}
	defer q.Trace.StartStage(obs.StageMerge).End()
	return merge(parts), rep, nil
}

// unlessDone returns v, or ctx.Err() and no result once ctx has fired.
func unlessDone[T any](ctx context.Context, v []T) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// finishIDs orders one store's internal result ids and translates them
// to external ids, under one sort span.
func finishIDs(g *maint.Generation, ids []model.ObjectID, tr *obs.Trace) []ObjectID {
	defer tr.StartStage(obs.StageSort).End()
	SortIDs(ids)
	return g.External(ids)
}

// Search runs a time-travel IR query: objects overlapping [start, end]
// whose description contains every term. Unknown terms make the result
// empty (the conjunction cannot be satisfied). Results are in ascending
// id order.
func (e *Engine) Search(start, end Timestamp, terms ...string) []ObjectID {
	// Deliberately ctx-less convenience surface; callers who need
	// deadlines use SearchCtx.
	ids, _, _ := e.search(context.Background(), start, end, terms)
	return ids
}

// SearchCtx is Search with cancellation and timeout support: everything
// or an error. A fired ctx returns ctx.Err().
func (e *Engine) SearchCtx(ctx context.Context, start, end Timestamp, terms ...string) ([]ObjectID, error) {
	ids, _, err := e.search(ctx, start, end, terms)
	return ids, err
}

// SearchShardsCtx is SearchCtx plus the shard report: how many stores
// the query planned and how many extent pruning skipped.
func (e *Engine) SearchShardsCtx(ctx context.Context, start, end Timestamp, terms ...string) ([]ObjectID, ShardReport, error) {
	return e.search(ctx, start, end, terms)
}

func (e *Engine) search(ctx context.Context, start, end Timestamp, terms []string) ([]ObjectID, ShardReport, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, e.unresolved(err), err
	}
	ids, rep, err := e.searchQuery(ctx, e.set.View(), q)
	if err == nil {
		ids, err = unlessDone(ctx, ids)
	}
	return ids, rep, err
}

// searchQuery is the body of every conjunctive search, batch rows
// included: q's ascending external ids over every planned store of view.
func (e *Engine) searchQuery(ctx context.Context, view []*maint.Generation, q Query) ([]ObjectID, ShardReport, error) {
	var out []ObjectID
	rep := oneStore
	if g := e.single(view); g != nil {
		out = finishIDs(g, g.Query(q), q.Trace)
	} else {
		var err error
		out, rep, err = gather(ctx, e, q, view, func(g *maint.Generation) []ObjectID {
			return finishIDs(g, g.Query(q), q.Trace)
		}, shard.MergeAscending)
		if err != nil {
			return nil, rep, err
		}
	}
	q.Trace.AddResults(len(out))
	return out, rep, nil
}

// SearchTopKCtx runs a relevance-ranked time-travel query: among the
// objects matching the containment query, return the k most relevant —
// the ranked-search extension the paper leaves as future work. Every
// match contains every term, so the score is the fraction of [start,
// end] the object's lifespan covers; it reads no corpus statistics, and
// a ranked answer does not move when unrelated objects are inserted,
// deleted or compacted away. The global top k across the stores is
// ordered (score desc, id asc) exactly as one store over the whole
// corpus would order it. A fired ctx returns ctx.Err().
func (e *Engine) SearchTopKCtx(ctx context.Context, start, end Timestamp, k int, terms ...string) ([]ScoredResult, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, err
	}
	var res []rank.Result
	view := e.set.View()
	if g := e.single(view); g != nil {
		res = rankTopK(g, q, k)
	} else if res, _, err = gather(ctx, e, q, view, func(g *maint.Generation) []rank.Result {
		return rankTopK(g, q, k)
	}, func(parts [][]rank.Result) []rank.Result {
		return shard.MergeTopK(parts, k)
	}); err != nil {
		return nil, err
	}
	out := make([]ScoredResult, len(res))
	for i, r := range res {
		out[i] = ScoredResult{ID: r.ID, Score: r.Score}
	}
	q.Trace.AddResults(len(out))
	return unlessDone(ctx, out)
}

// rankTopK scores and selects one store's top k under a rank span, then
// translates the ids to external ones: within a store internal order is
// external order, so the list stays sorted under the (score desc, id
// asc) merge order. The span envelopes the ranked path's inner
// containment query, so it overlaps the postings/intersect/filter spans
// that query records.
func rankTopK(g *maint.Generation, q Query, k int) []rank.Result {
	defer q.Trace.StartStage(obs.StageRank).End()
	rs := rank.TopK(g, g.Coll(), nil, q, k)
	for i := range rs {
		rs[i].ID = g.ExternalID(rs[i].ID)
	}
	return rs
}

// TimelineCtx aggregates a time-travel IR query over time: the interval
// [start, end] is split into the requested number of buckets and each
// reports how many matching objects were alive in it (and for how long) —
// "how did interest in these terms evolve across the period". The
// stores' histograms are summed bucket by bucket (every store shares the
// same bucket layout). When planning prunes every store the layout is
// synthesized, matching the zero-count histogram of a no-match query. A
// fired ctx returns ctx.Err().
func (e *Engine) TimelineCtx(ctx context.Context, start, end Timestamp, buckets int, terms ...string) ([]TimelineBucket, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, err
	}
	var hist []aggregate.Bucket
	view := e.set.View()
	if g := e.single(view); g != nil {
		hist = histogram(g, q, buckets)
	} else if hist, _, err = gather(ctx, e, q, view, func(g *maint.Generation) []aggregate.Bucket {
		return histogram(g, q, buckets)
	}, shard.MergeHistograms); err != nil {
		return nil, err
	}
	if hist == nil {
		hist = aggregate.Layout(q, buckets)
	}
	out := make([]TimelineBucket, 0, len(hist))
	for _, b := range hist {
		out = append(out, TimelineBucket{Start: b.Span.Start, End: b.Span.End, Count: b.Count, Mass: b.Mass})
	}
	q.Trace.AddResults(len(out))
	return unlessDone(ctx, out)
}

// histogram runs one store's aggregation under an agg span. Like the
// rank span, it envelopes the aggregation's inner index work.
func histogram(g *maint.Generation, q Query, buckets int) []aggregate.Bucket {
	defer q.Trace.StartStage(obs.StageAgg).End()
	return aggregate.Histogram(g, g.Coll(), q, buckets)
}

// SearchBatchCtx evaluates many element-id queries concurrently over the
// engine's pool, one row per worker. results[i] corresponds to
// queries[i]; ids are in ascending order, so a batch result is
// byte-identical to running Query serially. The whole batch runs
// against one view of the engine: mutations landing mid-batch are
// invisible to it, and the batch never blocks them. Cancellation is
// cooperative: queries not yet started when ctx fires are marked with
// Err = ctx.Err() and nil IDs. A row either has its complete result or
// a non-nil Err.
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

// SearchTermsBatchCtx resolves each row of terms against the dictionary
// and evaluates the resulting queries as one batch — the string-surface
// form of SearchBatchCtx, following its row contract. Rows with unknown
// terms resolve to empty results, matching Search.
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

// runBatch evaluates n rows over the pool against one view of the
// engine. row(i) returns row i's query, or false for a row that resolves
// to an empty result without running. Rows not started when ctx fires
// carry Err = ctx.Err() and nil IDs.
func (e *Engine) runBatch(ctx context.Context, n int, row func(i int) (Query, bool)) []Result {
	view := e.set.View()
	results := make([]Result, n)
	started := make([]bool, n)
	_ = e.executor().MapCtx(ctx, n, func(i int) {
		started[i] = true
		if q, ok := row(i); ok {
			ids, _, err := e.searchQuery(ctx, view, q)
			results[i] = Result{IDs: ids, Err: err}
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
