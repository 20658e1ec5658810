package temporalir

import (
	"context"
	"time"

	"repro/internal/aggregate"
	"repro/internal/maint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/shard"
)

// Scatter-gather execution for the sharded engine. Every query follows
// the same shape: resolve terms once against the shared dictionary
// (plan span), select the shard set whose extents can overlap the
// interval, fan out over the exec pool (scatter span, one immutable
// generation snapshot per shard), and merge the per-shard results
// (merge span). Per-shard deadlines only exist on the *ShardsCtx
// surface, where the ShardReport names any cut shard; the Engine-shaped
// context surface converts a partial gather into *PartialError, and the
// context-free surface never applies deadlines — so no path can return
// a silently truncated result.

// resolveTermsTraced maps terms to element ids under the shared
// dictionary lock (and a plan span), reporting ok=false if any term is
// unknown.
func (s *Sharded) resolveTermsTraced(tr *obs.Trace, terms []string) ([]ElemID, bool) {
	defer tr.StartStage(obs.StagePlan).End()
	s.dmu.RLock()
	defer s.dmu.RUnlock()
	elems := make([]ElemID, 0, len(terms))
	for _, t := range terms {
		id, ok := s.dict.Lookup(t)
		if !ok {
			return nil, false
		}
		elems = append(elems, id)
	}
	return elems, true
}

// scatter fans eval out over the planned shards. With a positive
// timeout each shard runs detached and is recorded as cut when the
// deadline fires first — the caller MUST NOT read a cut shard's result
// slot (its eval may still be writing). A fired ctx fails the whole
// gather with ctx.Err(); otherwise the returned report is complete.
func (s *Sharded) scatter(ctx context.Context, planned []int, pruned int, tr *obs.Trace, timeout time.Duration, eval func(si int)) (ShardReport, error) {
	s.queries.Add(1)
	s.shardsPruned.Add(uint64(pruned))
	rep := ShardReport{Planned: len(planned), Pruned: pruned}
	if len(planned) == 0 {
		return rep, ctx.Err()
	}
	span := tr.StartStage(obs.StageScatter) // lint:span-ok straight-line: MapCtx returns on every path and End immediately follows it
	pool := s.executor()
	cut := make([]bool, len(planned))
	_ = pool.MapCtx(ctx, len(planned), func(p int) {
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
	s.shardsCut.Add(uint64(len(rep.Cut)))
	return rep, nil
}

// contributed lists the planned shards that answered (planned minus
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

// SearchShardsCtx is the report-carrying conjunctive search: matching
// ids across the shards that answered, ascending in global id order,
// plus the shard report. With a configured ShardTimeout a slow shard is
// cut and named in the report (err stays nil — the partial rows are the
// caller's to keep); a fired ctx fails the whole query instead.
func (s *Sharded) SearchShardsCtx(ctx context.Context, start, end Timestamp, terms ...string) ([]ObjectID, ShardReport, error) {
	return s.searchShards(ctx, s.sopts.ShardTimeout, start, end, terms)
}

func (s *Sharded) searchShards(ctx context.Context, timeout time.Duration, start, end Timestamp, terms []string) ([]ObjectID, ShardReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, ShardReport{}, err
	}
	tr := obs.TraceFromContext(ctx)
	elems, ok := s.resolveTermsTraced(tr, terms)
	if !ok {
		return nil, ShardReport{Pruned: len(s.stores)}, nil
	}
	iv := model.Canon(start, end)
	q := Query{Interval: iv, Elems: model.NormalizeElems(elems), Trace: tr}
	planned, pruned := s.plan(iv)
	lists := make([][]ObjectID, len(s.stores))
	rep, err := s.scatter(ctx, planned, pruned, tr, timeout, func(si int) {
		g := s.snapshotOne(si)
		ids := g.Query(q)
		SortIDs(ids)
		lists[si] = g.External(ids)
	})
	if err != nil {
		return nil, rep, err
	}
	out := mergeIDLists(lists, contributed(planned, rep), tr)
	tr.AddResults(len(out))
	return out, rep, nil
}

// mergeIDLists k-way merges the contributing shards' ascending id lists
// under a merge span.
func mergeIDLists(lists [][]ObjectID, from []int, tr *obs.Trace) []ObjectID {
	defer tr.StartStage(obs.StageMerge).End()
	in := make([][]ObjectID, len(from))
	for i, si := range from {
		in[i] = lists[si]
	}
	return shard.MergeAscending(in)
}

// Search is the context-free conjunctive search, identical in contract
// to Engine.Search. No per-shard deadline applies — without a report
// channel a deadline could only truncate silently.
func (s *Sharded) Search(start, end Timestamp, terms ...string) []ObjectID {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchCtx/SearchShardsCtx
	ids, _, _ := s.searchShards(context.Background(), 0, start, end, terms)
	return ids
}

// SearchCtx is the Engine-shaped context search: everything or an
// error. A fired ctx returns ctx.Err(); a per-shard deadline cut
// returns *PartialError naming the cut shards (use SearchShardsCtx to
// keep the partial rows instead).
func (s *Sharded) SearchCtx(ctx context.Context, start, end Timestamp, terms ...string) ([]ObjectID, error) {
	return whole(s.SearchShardsCtx(ctx, start, end, terms...))
}

// whole turns a report-carrying result into the Engine-shaped contract:
// everything, or an error — *PartialError when a shard was cut.
func whole[T any](v []T, rep ShardReport, err error) ([]T, error) {
	if err == nil && rep.Partial() {
		err = &PartialError{Report: rep}
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// SearchAny is the disjunctive counterpart of Search: objects alive in
// [start, end] containing at least one of the terms; unknown terms are
// ignored.
func (s *Sharded) SearchAny(start, end Timestamp, terms ...string) []ObjectID {
	s.dmu.RLock()
	elems := make([]ElemID, 0, len(terms))
	for _, t := range terms {
		if id, ok := s.dict.Lookup(t); ok {
			elems = append(elems, id)
		}
	}
	s.dmu.RUnlock()
	if len(elems) == 0 {
		return nil
	}
	iv := model.Canon(start, end)
	norm := model.NormalizeElems(elems)
	planned, pruned := s.plan(iv)
	lists := make([][]ObjectID, len(s.stores))
	// irlint:ctx-root deliberately ctx-less convenience surface, like Engine.SearchAny
	rep, _ := s.scatter(context.Background(), planned, pruned, nil, 0, func(si int) {
		g := s.snapshotOne(si)
		var out []ObjectID
		for _, el := range norm {
			out = append(out, g.Query(Query{Interval: iv, Elems: []ElemID{el}})...)
		}
		SortIDs(out)
		lists[si] = g.External(model.DedupIDs(out))
	})
	return mergeIDLists(lists, contributed(planned, rep), nil)
}

// SearchTopKShardsCtx is the report-carrying ranked search: the global
// top k across the shards that answered, ordered (score desc, id asc)
// exactly as a single engine would order them. Every shard is
// snapshotted once; the statistics summed over all of those snapshots
// (pruned shards included — their objects are part of the corpus) give
// the query one scorer, and the planned shards rank their candidates
// from the same snapshots.
func (s *Sharded) SearchTopKShardsCtx(ctx context.Context, start, end Timestamp, k int, terms ...string) ([]ScoredResult, ShardReport, error) {
	return s.searchTopKShards(ctx, s.sopts.ShardTimeout, start, end, k, terms)
}

func (s *Sharded) searchTopKShards(ctx context.Context, timeout time.Duration, start, end Timestamp, k int, terms []string) ([]ScoredResult, ShardReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, ShardReport{}, err
	}
	tr := obs.TraceFromContext(ctx)
	elems, ok := s.resolveTermsTraced(tr, terms)
	if !ok {
		return nil, ShardReport{Pruned: len(s.stores)}, nil
	}
	iv := model.Canon(start, end)
	q := Query{Interval: iv, Elems: model.NormalizeElems(elems), Trace: tr}
	// Snapshot before planning: extents grow before an object becomes
	// visible, so a shard holding a match in its snapshot is never pruned.
	gens := make([]*maint.Generation, len(s.stores))
	for i := range gens {
		gens[i] = s.snapshotOne(i)
	}
	w := queryScorer(gens, q.Elems)
	planned, pruned := s.plan(iv)
	lists := make([][]rank.Result, len(s.stores))
	rep, err := s.scatter(ctx, planned, pruned, tr, timeout, func(si int) {
		g := gens[si]
		span := tr.StartStage(obs.StageRank) // lint:span-ok straight-line closure: TopKQuery cannot return early and End follows it
		rs := rank.TopKQuery(g, g.Coll(), w, q, k)
		span.End()
		// Translate to global ids before the cross-shard merge: within
		// a shard internal order is external order, so the list stays
		// sorted under the (score desc, id asc) merge order.
		for i := range rs {
			rs[i].ID = g.ExternalID(rs[i].ID)
		}
		lists[si] = rs
	})
	if err != nil {
		return nil, rep, err
	}
	merged := mergeTopKLists(lists, contributed(planned, rep), k, tr)
	out := make([]ScoredResult, len(merged))
	for i, r := range merged {
		out[i] = ScoredResult{ID: r.ID, Score: r.Score}
	}
	tr.AddResults(len(out))
	return out, rep, nil
}

// mergeTopKLists merges the contributing shards' local top-k lists
// under a merge span.
func mergeTopKLists(lists [][]rank.Result, from []int, k int, tr *obs.Trace) []rank.Result {
	defer tr.StartStage(obs.StageMerge).End()
	in := make([][]rank.Result, len(from))
	for i, si := range from {
		in[i] = lists[si]
	}
	return shard.MergeTopK(in, k)
}

// SearchTopK is the context-free ranked search, identical in contract
// to Engine.SearchTopK. No per-shard deadline applies.
func (s *Sharded) SearchTopK(start, end Timestamp, k int, terms ...string) []ScoredResult {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchTopKCtx/SearchTopKShardsCtx
	res, _, _ := s.searchTopKShards(context.Background(), 0, start, end, k, terms)
	return res
}

// SearchTopKCtx is the Engine-shaped ranked context search: everything
// or an error (*PartialError on a per-shard deadline cut).
func (s *Sharded) SearchTopKCtx(ctx context.Context, start, end Timestamp, k int, terms ...string) ([]ScoredResult, error) {
	return whole(s.SearchTopKShardsCtx(ctx, start, end, k, terms...))
}

// TimelineShardsCtx is the report-carrying timeline aggregation:
// per-shard histograms summed bucket-by-bucket (every shard shares the
// same bucket layout). When the planner prunes every shard the layout
// is synthesized, matching the zero-count histogram a single engine
// returns for a no-match query.
func (s *Sharded) TimelineShardsCtx(ctx context.Context, start, end Timestamp, buckets int, terms ...string) ([]TimelineBucket, ShardReport, error) {
	return s.timelineShards(ctx, s.sopts.ShardTimeout, start, end, buckets, terms)
}

func (s *Sharded) timelineShards(ctx context.Context, timeout time.Duration, start, end Timestamp, buckets int, terms []string) ([]TimelineBucket, ShardReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, ShardReport{}, err
	}
	tr := obs.TraceFromContext(ctx)
	elems, ok := s.resolveTermsTraced(tr, terms)
	if !ok {
		return nil, ShardReport{Pruned: len(s.stores)}, nil
	}
	iv := model.Canon(start, end)
	q := Query{Interval: iv, Elems: model.NormalizeElems(elems), Trace: tr}
	planned, pruned := s.plan(iv)
	lists := make([][]aggregate.Bucket, len(s.stores))
	rep, err := s.scatter(ctx, planned, pruned, tr, timeout, func(si int) {
		g := s.snapshotOne(si)
		span := tr.StartStage(obs.StageAgg) // lint:span-ok straight-line closure: Histogram cannot return early and End follows it
		lists[si] = aggregate.Histogram(g, g.Coll(), q, buckets)
		span.End()
	})
	if err != nil {
		return nil, rep, err
	}
	out := mergeTimeline(lists, contributed(planned, rep), q, buckets, tr)
	tr.AddResults(len(out))
	return out, rep, nil
}

// mergeTimeline sums the contributing histograms (synthesizing the
// empty layout when nothing contributed) under a merge span.
func mergeTimeline(lists [][]aggregate.Bucket, from []int, q Query, buckets int, tr *obs.Trace) []TimelineBucket {
	defer tr.StartStage(obs.StageMerge).End()
	in := make([][]aggregate.Bucket, len(from))
	for i, si := range from {
		in[i] = lists[si]
	}
	merged := shard.MergeHistograms(in)
	if merged == nil {
		merged = aggregate.Layout(q, buckets)
	}
	out := make([]TimelineBucket, 0, buckets)
	for _, b := range merged {
		out = append(out, TimelineBucket{Start: b.Span.Start, End: b.Span.End, Count: b.Count, Mass: b.Mass})
	}
	return out
}

// Timeline is the context-free timeline aggregation, identical in
// contract to Engine.Timeline. No per-shard deadline applies.
func (s *Sharded) Timeline(start, end Timestamp, buckets int, terms ...string) []TimelineBucket {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use TimelineCtx/TimelineShardsCtx
	out, _, _ := s.timelineShards(context.Background(), 0, start, end, buckets, terms)
	return out
}

// TimelineCtx is the Engine-shaped timeline context search: everything
// or an error (*PartialError on a per-shard deadline cut).
func (s *Sharded) TimelineCtx(ctx context.Context, start, end Timestamp, buckets int, terms ...string) ([]TimelineBucket, error) {
	return whole(s.TimelineShardsCtx(ctx, start, end, buckets, terms...))
}

// SearchTermsBatch evaluates many term rows as one batch over the pool.
// Rows with unknown terms resolve to empty results, matching Search.
func (s *Sharded) SearchTermsBatch(start, end Timestamp, termRows [][]string) []Result {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchTermsBatchCtx
	return s.SearchTermsBatchCtx(context.Background(), start, end, termRows)
}

// SearchTermsBatchCtx is SearchTermsBatch with cooperative cancellation
// and explicit partial semantics per row: rows not started when ctx
// fires carry Err = ctx.Err(); a row whose per-shard deadline cut a
// shard carries Err = *PartialError instead of silently shortened ids.
// A row either has its complete result or a non-nil Err.
func (s *Sharded) SearchTermsBatchCtx(ctx context.Context, start, end Timestamp, termRows [][]string) []Result {
	tr := obs.TraceFromContext(ctx)
	tr.SetBatch(len(termRows))
	results := make([]Result, len(termRows))
	started := make([]bool, len(termRows))
	pool := s.executor()
	_ = pool.MapCtx(ctx, len(termRows), func(i int) {
		started[i] = true
		ids, rep, err := s.searchShards(ctx, s.sopts.ShardTimeout, start, end, termRows[i])
		switch {
		case err != nil:
			results[i] = Result{Err: err}
		case rep.Partial():
			results[i] = Result{Err: &PartialError{Report: rep}}
		default:
			results[i] = Result{IDs: ids}
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
