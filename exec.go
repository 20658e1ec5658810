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

// Query execution. Every query kind has one body, which the plain form
// runs under context.Background(). The body resolves the terms once
// against the shared dictionary (plan span) and then evaluates:
//
//   - A one-store engine runs the store's query on the caller's
//     goroutine: no planning, scatter or merge, and no per-query slices.
//   - Otherwise it selects the stores whose extents can overlap the
//     interval, fans out over the worker pool (scatter span, one
//     immutable generation snapshot per store) and merges the stores'
//     answers (merge span).
//
// Every query runs its index's one serial body; the parallelism is
// across stores and across batch rows, never inside one query.
//
// Every planned store runs to completion under the caller's context, so
// an answer is either complete or an error: a fired context fails the
// whole query with ctx.Err().
//
// Batches pin one generation per store and run their rows over the pool
// against it, so a batch sees one consistent view however many inserts,
// deletes or compactions land mid-flight. Only term resolution takes
// the (tiny) dictionary read lock, once per batch.

// Result is one row of a batch search: the matching ids in ascending
// order, or the error that prevented the query from running (context
// cancellation or timeout).
type Result struct {
	IDs []ObjectID
	Err error
}

// ScoredResult is one ranked hit of SearchTopK.
type ScoredResult struct {
	ID    ObjectID
	Score float64
}

// TimelineBucket is one row of Timeline's temporal histogram.
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
// scatter and merge — the only store's, gens[0] when the caller pinned
// one — and counts the query; it returns nil when the engine has several
// stores.
func (e *Engine) single(gens []*maint.Generation) *maint.Generation {
	if len(e.stores) > 1 {
		return nil
	}
	e.queries.Add(1)
	if gens != nil {
		return gens[0]
	}
	return e.stores[0].Snapshot()
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
	return ShardReport{Pruned: len(e.stores)}
}

// gather evaluates q on every planned store — on gens[si] when the
// caller pinned a generation per store, else on a snapshot taken as the
// store runs — and merges their answers. A fired ctx fails the whole
// gather.
func gather[T any](ctx context.Context, e *Engine, q Query, gens []*maint.Generation, eval func(g *maint.Generation) T, merge func(parts []T) T) (T, ShardReport, error) {
	planned, pruned := e.plan(q.Interval)
	parts := make([]T, len(planned))
	rep, err := e.scatter(ctx, planned, pruned, q.Trace, func(p, si int) {
		if gens != nil {
			parts[p] = eval(gens[si])
		} else {
			parts[p] = eval(e.stores[si].Snapshot())
		}
	})
	if err != nil {
		var zero T
		return zero, rep, err
	}
	return mergeParts(q.Trace, parts, merge), rep, nil
}

// mergeParts runs one merge under a merge span.
func mergeParts[T any](tr *obs.Trace, parts []T, merge func(parts []T) T) T {
	defer tr.StartStage(obs.StageMerge).End()
	return merge(parts)
}

// scatter fans eval out over the planned stores; eval receives each
// store's planned position and index. Every store runs to completion
// on the pool. A fired ctx fails the whole gather with ctx.Err().
func (e *Engine) scatter(ctx context.Context, planned []int, pruned int, tr *obs.Trace, eval func(p, si int)) (ShardReport, error) {
	e.queries.Add(1)
	e.shardsPruned.Add(uint64(pruned))
	rep := ShardReport{Planned: len(planned), Pruned: pruned}
	if len(planned) == 0 {
		return rep, ctx.Err()
	}
	span := tr.StartStage(obs.StageScatter) // lint:span-ok straight-line: MapCtx returns on every path and End immediately follows it
	_ = e.executor().MapCtx(ctx, len(planned), func(p int) { eval(p, planned[p]) })
	span.End()
	return rep, ctx.Err()
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
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchCtx
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
	ids, rep, err := e.searchQuery(ctx, nil, q)
	if err == nil {
		ids, err = unlessDone(ctx, ids)
	}
	return ids, rep, err
}

// searchQuery is the body of every conjunctive search, batch rows
// included: q's ascending external ids over every planned store.
func (e *Engine) searchQuery(ctx context.Context, gens []*maint.Generation, q Query) ([]ObjectID, ShardReport, error) {
	var out []ObjectID
	rep := oneStore
	if g := e.single(gens); g != nil {
		out = finishIDs(g, g.Query(q), q.Trace)
	} else {
		var err error
		out, rep, err = gather(ctx, e, q, gens, func(g *maint.Generation) []ObjectID {
			return finishIDs(g, g.Query(q), q.Trace)
		}, shard.MergeAscending)
		if err != nil {
			return nil, rep, err
		}
	}
	q.Trace.AddResults(len(out))
	return out, rep, nil
}

// SearchAny runs the disjunctive counterpart of Search: objects alive in
// [start, end] containing at least one of the terms. Unknown terms are
// ignored (they cannot contribute matches).
func (e *Engine) SearchAny(start, end Timestamp, terms ...string) []ObjectID {
	e.dmu.RLock()
	elems := make([]ElemID, 0, len(terms))
	for _, t := range terms {
		if id, ok := e.lookupLocked(t); ok {
			elems = append(elems, id)
		}
	}
	e.dmu.RUnlock()
	if len(elems) == 0 {
		return nil
	}
	q := Query{Interval: model.Canon(start, end), Elems: model.NormalizeElems(elems)}
	if g := e.single(nil); g != nil {
		return anyIDs(g, q)
	}
	// irlint:ctx-root deliberately ctx-less convenience surface, like Search
	out, _, _ := gather(context.Background(), e, q, nil, func(g *maint.Generation) []ObjectID {
		return anyIDs(g, q)
	}, shard.MergeAscending)
	return out
}

// anyIDs evaluates one store's disjunction: a single-element query per
// element, unioned, in ascending external id order.
func anyIDs(g *maint.Generation, q Query) []ObjectID {
	var out []ObjectID
	for _, el := range q.Elems {
		out = append(out, g.Query(Query{Interval: q.Interval, Elems: []ElemID{el}})...)
	}
	SortIDs(out)
	return g.External(model.DedupIDs(out))
}

// SearchTopK runs a relevance-ranked time-travel query: among the objects
// matching the containment query, return the k most relevant, scored by
// element rarity (IDF) blended with temporal overlap — the ranked-search
// extension the paper leaves as future work. IDF weights are those of
// the generations the query runs against: every stored object counts,
// inserted a moment ago or tombstoned but not yet compacted away.
func (e *Engine) SearchTopK(start, end Timestamp, k int, terms ...string) []ScoredResult {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchTopKCtx
	res, _ := e.SearchTopKCtx(context.Background(), start, end, k, terms...)
	return res
}

// SearchTopKCtx is SearchTopK with cancellation and timeout support:
// everything or an error. The global top k across the stores is ordered
// (score desc, id asc) exactly as one store over the whole corpus would
// order it.
func (e *Engine) SearchTopKCtx(ctx context.Context, start, end Timestamp, k int, terms ...string) ([]ScoredResult, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, err
	}
	// Every store is snapshotted once, before planning: extents grow
	// before an object becomes visible, so a store holding a match in
	// its snapshot is never pruned. The statistics summed over all of
	// those snapshots (pruned stores included — their objects are part
	// of the corpus) give the query one scorer.
	gens := e.snapshots()
	w := queryScorer(gens, q.Elems)
	var res []rank.Result
	if g := e.single(gens); g != nil {
		res = rankTopK(g, w, q, k)
	} else if res, _, err = gather(ctx, e, q, gens, func(g *maint.Generation) []rank.Result {
		return rankTopK(g, w, q, k)
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
func rankTopK(g *maint.Generation, w rank.QueryScorer, q Query, k int) []rank.Result {
	defer q.Trace.StartStage(obs.StageRank).End()
	rs := rank.TopKQuery(g, g.Coll(), w, q, k)
	for i := range rs {
		rs[i].ID = g.ExternalID(rs[i].ID)
	}
	return rs
}

// queryScorer builds one ranked query's scorer from the statistics of
// the generations it runs against, one per store: populations and
// per-element document frequencies summed, so every store scores with
// the weights one store over the whole corpus would use.
func queryScorer(gens []*maint.Generation, elems []ElemID) rank.QueryScorer {
	n := 0
	for _, g := range gens {
		n += len(g.Coll().Objects)
	}
	return rank.NewQueryScorer(elems, n, func(e ElemID) int {
		df := 0
		for _, g := range gens {
			df += g.DocFreq(e)
		}
		return df
	}, rank.ScorerConfig{})
}

// Timeline aggregates a time-travel IR query over time: the interval
// [start, end] is split into the requested number of buckets and each
// reports how many matching objects were alive in it (and for how long) —
// "how did interest in these terms evolve across the period".
func (e *Engine) Timeline(start, end Timestamp, buckets int, terms ...string) []TimelineBucket {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use TimelineCtx
	out, _ := e.TimelineCtx(context.Background(), start, end, buckets, terms...)
	return out
}

// TimelineCtx is Timeline with cancellation and timeout support:
// everything or an error. The stores' histograms are summed bucket by
// bucket (every store shares the same bucket layout). When planning
// prunes every store the layout is synthesized, matching the zero-count
// histogram of a no-match query.
func (e *Engine) TimelineCtx(ctx context.Context, start, end Timestamp, buckets int, terms ...string) ([]TimelineBucket, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, err
	}
	var hist []aggregate.Bucket
	if g := e.single(nil); g != nil {
		hist = histogram(g, q, buckets)
	} else if hist, _, err = gather(ctx, e, q, nil, func(g *maint.Generation) []aggregate.Bucket {
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

// SearchBatch evaluates many element-id queries concurrently over the
// engine's pool, one row per worker. results[i] corresponds to
// queries[i]; ids are in ascending order, so a batch result is
// byte-identical to running Query serially. The whole batch runs
// against one generation per store: mutations landing mid-batch are
// invisible to it, and the batch never blocks them.
func (e *Engine) SearchBatch(queries []Query) []Result {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchBatchCtx
	return e.SearchBatchCtx(context.Background(), queries)
}

// SearchBatchCtx is SearchBatch with cooperative cancellation: queries
// not yet started when ctx fires are marked with Err = ctx.Err() and nil
// IDs. A row either has its complete result or a non-nil Err.
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

// SearchTermsBatch resolves each row of terms against the dictionary and
// evaluates the resulting queries as one batch — the string-surface
// convenience over SearchBatch. Rows with unknown terms resolve to empty
// results, matching Search.
func (e *Engine) SearchTermsBatch(start, end Timestamp, termRows [][]string) []Result {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchTermsBatchCtx
	return e.SearchTermsBatchCtx(context.Background(), start, end, termRows)
}

// SearchTermsBatchCtx is SearchTermsBatch with cooperative cancellation,
// following the SearchBatchCtx row contract.
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

// runBatch evaluates n rows over the pool against one generation per
// store. row(i) returns row i's query, or false for a row that resolves
// to an empty result without running. Rows not started when ctx fires
// carry Err = ctx.Err() and nil IDs.
func (e *Engine) runBatch(ctx context.Context, n int, row func(i int) (Query, bool)) []Result {
	gens := e.snapshots()
	results := make([]Result, n)
	started := make([]bool, n)
	_ = e.executor().MapCtx(ctx, n, func(i int) {
		started[i] = true
		if q, ok := row(i); ok {
			ids, _, err := e.searchQuery(ctx, gens, q)
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
