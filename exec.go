package temporalir

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/exec"
	"repro/internal/maint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/shard"
)

// Query execution. Every query kind has one body, which the plain,
// context and report-carrying forms wrap. The body resolves the terms
// once against the shared dictionary (plan span) and then evaluates:
//
//   - A one-store engine with no per-store deadline runs the store's
//     query on the caller's goroutine: no planning, scatter or merge,
//     and no per-query slices.
//   - Otherwise it selects the stores whose extents can overlap the
//     interval, fans out over the worker pool (scatter span, one
//     immutable generation snapshot per store) and merges the stores'
//     answers (merge span).
//
// Every query runs its index's one serial body; the parallelism is
// across stores and across batch rows, never inside one query.
//
// Per-store deadlines (ShardedOptions.ShardTimeout) apply on the context
// surface only. The *ShardsCtx forms name a cut store in their
// ShardReport; the other context forms and batch rows turn a cut into
// *PartialError; the context-free forms never apply a deadline. No path
// returns a silently truncated result.
//
// Batches pin one generation per store and run their rows over the pool
// against it, so a batch sees one consistent view however many inserts,
// deletes or compactions land mid-flight. Only term resolution takes
// the (tiny) dictionary read lock, once per batch.

// Result is one row of a batch search: the matching ids in ascending
// order, or the error that prevented the query from running (context
// cancellation or timeout, or *PartialError).
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

// PartialError is returned by the context forms without a report
// (SearchCtx, SearchTopKCtx, TimelineCtx, batch rows) when per-store
// deadlines cut one or more stores: the merged result would be missing
// those stores' contribution, so the incompleteness is returned as an
// error instead of silence. Callers that want the partial rows use the
// *ShardsCtx forms.
type PartialError struct {
	Report ShardReport
}

// Error names the cut stores so logs show exactly what is missing.
func (e *PartialError) Error() string {
	return fmt.Sprintf("temporalir: partial result: %d of %d planned shards cut %v",
		len(e.Report.Cut), e.Report.Planned, e.Report.Cut)
}

// AsPartialError unwraps err as a *PartialError if it is one.
func AsPartialError(err error) (*PartialError, bool) {
	var pe *PartialError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

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
// stores or a per-store deadline applies.
func (e *Engine) single(gens []*maint.Generation, timeout time.Duration) *maint.Generation {
	if len(e.stores) > 1 || timeout > 0 {
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
// store runs — and merges the answers of the stores that answered. With
// a positive timeout each store runs detached and is reported as cut
// when the deadline fires first. A fired ctx fails the whole gather.
func gather[T any](ctx context.Context, e *Engine, q Query, timeout time.Duration, gens []*maint.Generation, eval func(g *maint.Generation) T, merge func(parts []T) T) (T, ShardReport, error) {
	planned, pruned := e.plan(q.Interval)
	lists := make([]T, len(e.stores))
	rep, err := e.scatter(ctx, planned, pruned, q.Trace, timeout, func(si int) {
		if gens != nil {
			lists[si] = eval(gens[si])
		} else {
			lists[si] = eval(e.stores[si].Snapshot())
		}
	})
	if err != nil {
		var zero T
		return zero, rep, err
	}
	from := contributed(planned, rep)
	parts := make([]T, len(from))
	for i, si := range from {
		parts[i] = lists[si]
	}
	return mergeParts(q.Trace, parts, merge), rep, nil
}

// mergeParts runs one merge under a merge span.
func mergeParts[T any](tr *obs.Trace, parts []T, merge func(parts []T) T) T {
	defer tr.StartStage(obs.StageMerge).End()
	return merge(parts)
}

// scatter fans eval out over the planned stores. With a positive
// timeout each store runs detached and is recorded as cut when the
// deadline fires first — the caller MUST NOT read a cut store's result
// slot (its eval may still be writing). A fired ctx fails the whole
// gather with ctx.Err(); otherwise the returned report is complete.
func (e *Engine) scatter(ctx context.Context, planned []int, pruned int, tr *obs.Trace, timeout time.Duration, eval func(si int)) (ShardReport, error) {
	e.queries.Add(1)
	e.shardsPruned.Add(uint64(pruned))
	rep := ShardReport{Planned: len(planned), Pruned: pruned}
	if len(planned) == 0 {
		return rep, ctx.Err()
	}
	span := tr.StartStage(obs.StageScatter) // lint:span-ok straight-line: MapCtx returns on every path and End immediately follows it
	cut := make([]bool, len(planned))
	_ = e.executor().MapCtx(ctx, len(planned), func(p int) {
		si := planned[p]
		if timeout <= 0 {
			eval(si)
			return
		}
		done := make(chan struct{})
		// irlint:goroutine-exits close of the unbuffered done channel is the goroutine's last act; eval always returns (pure in-memory scan), so the goroutine exits even when the deadline abandoned it
		go func() { eval(si); close(done) }()
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			cut[p] = true
		case <-ctx.Done():
			// Global cancellation fails the whole gather below; the
			// stray eval finishes against its snapshot in the
			// background, bounded by the caller's concurrency.
		}
	})
	span.End()
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	for p, c := range cut {
		if c {
			rep.Cut = append(rep.Cut, planned[p])
		}
	}
	e.shardsCut.Add(uint64(len(rep.Cut)))
	return rep, nil
}

// contributed lists the planned stores that answered (planned minus
// cut), i.e. the result slots the merge may read.
func contributed(planned []int, rep ShardReport) []int {
	if len(rep.Cut) == 0 {
		return planned
	}
	cut := make(map[int]bool, len(rep.Cut))
	for _, si := range rep.Cut {
		cut[si] = true
	}
	out := make([]int, 0, len(planned)-len(rep.Cut))
	for _, si := range planned {
		if !cut[si] {
			out = append(out, si)
		}
	}
	return out
}

// whole turns a report-carrying result into the contract of the forms
// without a report: everything, or an error — *PartialError when a
// store was cut.
func whole[T any](v []T, rep ShardReport, err error) ([]T, error) {
	if err == nil && rep.Partial() {
		err = &PartialError{Report: rep}
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// unlessDone returns v and rep, or ctx.Err() and no result once ctx has
// fired.
func unlessDone[T any](ctx context.Context, v []T, rep ShardReport) ([]T, ShardReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}
	return v, rep, nil
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
// id order. No per-store deadline applies.
func (e *Engine) Search(start, end Timestamp, terms ...string) []ObjectID {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchCtx
	ids, _, _ := e.search(context.Background(), 0, start, end, terms)
	return ids
}

// SearchCtx is Search with cancellation and timeout support: everything
// or an error. A fired ctx returns ctx.Err(); a per-store deadline cut
// returns *PartialError naming the cut stores (SearchShardsCtx keeps the
// partial rows instead).
func (e *Engine) SearchCtx(ctx context.Context, start, end Timestamp, terms ...string) ([]ObjectID, error) {
	return whole(e.SearchShardsCtx(ctx, start, end, terms...))
}

// SearchShardsCtx is the report-carrying conjunctive search: matching
// ids across the stores that answered, ascending, plus the shard
// report. With a configured ShardTimeout a slow store is cut and named
// in the report (err stays nil — the partial rows are the caller's to
// keep); a fired ctx fails the whole query instead.
func (e *Engine) SearchShardsCtx(ctx context.Context, start, end Timestamp, terms ...string) ([]ObjectID, ShardReport, error) {
	return e.search(ctx, e.sopts.ShardTimeout, start, end, terms)
}

func (e *Engine) search(ctx context.Context, timeout time.Duration, start, end Timestamp, terms []string) ([]ObjectID, ShardReport, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, e.unresolved(err), err
	}
	ids, rep, err := e.searchQuery(ctx, timeout, nil, q)
	if err != nil {
		return nil, rep, err
	}
	return unlessDone(ctx, ids, rep)
}

// searchQuery is the body of every conjunctive search, batch rows
// included: q's ascending external ids over the stores that answered.
func (e *Engine) searchQuery(ctx context.Context, timeout time.Duration, gens []*maint.Generation, q Query) ([]ObjectID, ShardReport, error) {
	var out []ObjectID
	rep := oneStore
	if g := e.single(gens, timeout); g != nil {
		out = finishIDs(g, g.Query(q), q.Trace)
	} else {
		var err error
		out, rep, err = gather(ctx, e, q, timeout, gens, func(g *maint.Generation) []ObjectID {
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
	if g := e.single(nil, 0); g != nil {
		return anyIDs(g, q)
	}
	// irlint:ctx-root deliberately ctx-less convenience surface, like Search
	out, _, _ := gather(context.Background(), e, q, 0, nil, func(g *maint.Generation) []ObjectID {
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
// inserted a moment ago or tombstoned but not yet compacted away. No
// per-store deadline applies.
func (e *Engine) SearchTopK(start, end Timestamp, k int, terms ...string) []ScoredResult {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchTopKCtx
	res, _, _ := e.searchTopK(context.Background(), 0, start, end, k, terms)
	return res
}

// SearchTopKCtx is SearchTopK with cancellation and timeout support:
// everything or an error (*PartialError on a per-store deadline cut).
func (e *Engine) SearchTopKCtx(ctx context.Context, start, end Timestamp, k int, terms ...string) ([]ScoredResult, error) {
	return whole(e.SearchTopKShardsCtx(ctx, start, end, k, terms...))
}

// SearchTopKShardsCtx is the report-carrying ranked search: the global
// top k across the stores that answered, ordered (score desc, id asc)
// exactly as one store over the whole corpus would order them.
func (e *Engine) SearchTopKShardsCtx(ctx context.Context, start, end Timestamp, k int, terms ...string) ([]ScoredResult, ShardReport, error) {
	return e.searchTopK(ctx, e.sopts.ShardTimeout, start, end, k, terms)
}

func (e *Engine) searchTopK(ctx context.Context, timeout time.Duration, start, end Timestamp, k int, terms []string) ([]ScoredResult, ShardReport, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, e.unresolved(err), err
	}
	// Every store is snapshotted once, before planning: extents grow
	// before an object becomes visible, so a store holding a match in
	// its snapshot is never pruned. The statistics summed over all of
	// those snapshots (pruned stores included — their objects are part
	// of the corpus) give the query one scorer.
	gens := e.snapshots()
	w := queryScorer(gens, q.Elems)
	var res []rank.Result
	rep := oneStore
	if g := e.single(gens, timeout); g != nil {
		res = rankTopK(g, w, q, k)
	} else if res, rep, err = gather(ctx, e, q, timeout, gens, func(g *maint.Generation) []rank.Result {
		return rankTopK(g, w, q, k)
	}, func(parts [][]rank.Result) []rank.Result {
		return shard.MergeTopK(parts, k)
	}); err != nil {
		return nil, rep, err
	}
	out := make([]ScoredResult, len(res))
	for i, r := range res {
		out[i] = ScoredResult{ID: r.ID, Score: r.Score}
	}
	q.Trace.AddResults(len(out))
	return unlessDone(ctx, out, rep)
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
// "how did interest in these terms evolve across the period". No
// per-store deadline applies.
func (e *Engine) Timeline(start, end Timestamp, buckets int, terms ...string) []TimelineBucket {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use TimelineCtx
	out, _, _ := e.timeline(context.Background(), 0, start, end, buckets, terms)
	return out
}

// TimelineCtx is Timeline with cancellation and timeout support:
// everything or an error (*PartialError on a per-store deadline cut).
func (e *Engine) TimelineCtx(ctx context.Context, start, end Timestamp, buckets int, terms ...string) ([]TimelineBucket, error) {
	return whole(e.TimelineShardsCtx(ctx, start, end, buckets, terms...))
}

// TimelineShardsCtx is the report-carrying timeline aggregation: the
// stores' histograms summed bucket by bucket (every store shares the
// same bucket layout). When planning prunes every store the layout is
// synthesized, matching the zero-count histogram of a no-match query.
func (e *Engine) TimelineShardsCtx(ctx context.Context, start, end Timestamp, buckets int, terms ...string) ([]TimelineBucket, ShardReport, error) {
	return e.timeline(ctx, e.sopts.ShardTimeout, start, end, buckets, terms)
}

func (e *Engine) timeline(ctx context.Context, timeout time.Duration, start, end Timestamp, buckets int, terms []string) ([]TimelineBucket, ShardReport, error) {
	q, ok, err := e.resolve(ctx, start, end, terms)
	if !ok {
		return nil, e.unresolved(err), err
	}
	var hist []aggregate.Bucket
	rep := oneStore
	if g := e.single(nil, timeout); g != nil {
		hist = histogram(g, q, buckets)
	} else if hist, rep, err = gather(ctx, e, q, timeout, nil, func(g *maint.Generation) []aggregate.Bucket {
		return histogram(g, q, buckets)
	}, shard.MergeHistograms); err != nil {
		return nil, rep, err
	}
	if hist == nil {
		hist = aggregate.Layout(q, buckets)
	}
	out := make([]TimelineBucket, 0, len(hist))
	for _, b := range hist {
		out = append(out, TimelineBucket{Start: b.Span.Start, End: b.Span.End, Count: b.Count, Mass: b.Mass})
	}
	q.Trace.AddResults(len(out))
	return unlessDone(ctx, out, rep)
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
// IDs; a row whose per-store deadline cut a store carries
// Err = *PartialError. A row either has its complete result or a
// non-nil Err.
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
	timeout := e.sopts.ShardTimeout
	results := make([]Result, n)
	started := make([]bool, n)
	_ = e.executor().MapCtx(ctx, n, func(i int) {
		started[i] = true
		if q, ok := row(i); ok {
			ids, err := whole(e.searchQuery(ctx, timeout, gens, q))
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
