package temporalir_test

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	temporalir "repro"
	"repro/internal/testutil"
)

// shardedWithTimeout builds a 4-shard engine over a sizable corpus with
// the given per-shard deadline.
func shardedWithTimeout(t *testing.T, timeout time.Duration) (*temporalir.Sharded, *temporalir.Engine, *temporalir.Collection) {
	t.Helper()
	cfg := testutil.CollectionConfig{N: 1500, DomainLo: 0, DomainHi: 20000, Dict: 25, MaxDesc: 6, Seed: 999}
	c := testutil.RandomCollection(cfg)
	b := temporalir.NewBuilder()
	for i := range c.Objects {
		o := &c.Objects[i]
		b.Add(o.Interval.Start, o.Interval.End, termsFor(o.Elems)...)
	}
	sh, err := b.BuildSharded(temporalir.TIF, temporalir.Options{}, temporalir.ShardedOptions{
		Shards: 4, ShardTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := engineOver(t, c, temporalir.TIF)
	return sh, oracle, c
}

// TestShardedPartialContract is the core partial-result guarantee: with
// an absurdly tight per-shard deadline, every answer either carries all
// planned shards' contributions (and then matches the oracle exactly)
// or names the shards that were cut — never a silently truncated result
// presented as complete.
func TestShardedPartialContract(t *testing.T) {
	sh, oracle, _ := shardedWithTimeout(t, time.Nanosecond)
	cfg := testutil.CollectionConfig{N: 1500, DomainLo: 0, DomainHi: 20000, Dict: 25, MaxDesc: 6, Seed: 999}
	queries := testutil.RandomQueries(cfg, 120, 1234)

	sawCut := false
	for i, q := range queries {
		terms := termsFor(q.Elems)
		ids, rep, err := sh.SearchShardsCtx(context.Background(), q.Interval.Start, q.Interval.End, terms...)
		if err != nil {
			t.Fatalf("query %d: unexpected hard error %v", i, err)
		}
		if rep.Complete() {
			want := oracle.Search(q.Interval.Start, q.Interval.End, terms...)
			if testutil.ResultChecksum(ids) != testutil.ResultChecksum(want) {
				t.Fatalf("query %d reported complete but diverged from oracle: %v vs %v", i, ids, want)
			}
			continue
		}
		sawCut = true
		if !sort.IntsAreSorted(rep.Cut) {
			t.Fatalf("query %d: cut list not ascending: %v", i, rep.Cut)
		}
		if len(rep.Cut) > rep.Planned {
			t.Fatalf("query %d: cut %d shards but planned only %d", i, len(rep.Cut), rep.Planned)
		}
		for _, si := range rep.Cut {
			if si < 0 || si >= sh.NumShards() {
				t.Fatalf("query %d: cut names bogus shard %d", i, si)
			}
		}
		// The Engine-shaped Ctx variant must refuse to pass a partial
		// result off as success.
		_, err = sh.SearchCtx(context.Background(), q.Interval.Start, q.Interval.End, terms...)
		if err == nil {
			// The second run may have completed — deadlines are racy by
			// nature. Only a nil error WITH a partial report is a bug,
			// and that is unobservable here; the scatter invariant above
			// already covers it.
			continue
		}
		pe, ok := temporalir.AsPartialError(err)
		if !ok {
			t.Fatalf("query %d: SearchCtx error is not a PartialError: %v", i, err)
		}
		if pe.Report.Complete() {
			t.Fatalf("query %d: PartialError carries a complete report", i)
		}
	}
	if !sawCut {
		t.Fatal("1ns per-shard deadline never cut a shard across 120 queries")
	}
	if cs := sh.CoordinatorStats(); cs.ShardsCut == 0 {
		t.Fatal("coordinator never counted a cut shard")
	}

	// The context-free surface never applies the per-shard deadline:
	// plain Search must always be complete and oracle-identical.
	q := queries[0]
	terms := termsFor(q.Elems)
	got := sh.Search(q.Interval.Start, q.Interval.End, terms...)
	want := oracle.Search(q.Interval.Start, q.Interval.End, terms...)
	if testutil.ResultChecksum(got) != testutil.ResultChecksum(want) {
		t.Fatalf("context-free Search diverged under ShardTimeout: %v vs %v", got, want)
	}
}

// TestShardedPartialTopKAndTimeline exercises the same contract on the
// ranked and timeline surfaces.
func TestShardedPartialTopKAndTimeline(t *testing.T) {
	sh, oracle, _ := shardedWithTimeout(t, time.Nanosecond)
	cfg := testutil.CollectionConfig{N: 1500, DomainLo: 0, DomainHi: 20000, Dict: 25, MaxDesc: 6, Seed: 999}
	queries := testutil.RandomQueries(cfg, 60, 777)

	for i, q := range queries {
		terms := termsFor(q.Elems)
		rs, rep, err := sh.SearchTopKShardsCtx(context.Background(), q.Interval.Start, q.Interval.End, 10, terms...)
		if err != nil {
			t.Fatalf("topk query %d: %v", i, err)
		}
		if rep.Complete() {
			want := oracle.SearchTopK(q.Interval.Start, q.Interval.End, 10, terms...)
			if len(rs) != len(want) {
				t.Fatalf("topk query %d complete but diverged: %v vs %v", i, rs, want)
			}
		}
		if _, err := sh.SearchTopKCtx(context.Background(), q.Interval.Start, q.Interval.End, 10, terms...); err != nil {
			if _, ok := temporalir.AsPartialError(err); !ok {
				t.Fatalf("topk query %d: not a PartialError: %v", i, err)
			}
		}
		tl, rep, err := sh.TimelineShardsCtx(context.Background(), q.Interval.Start, q.Interval.End, 6, terms...)
		if err != nil {
			t.Fatalf("timeline query %d: %v", i, err)
		}
		if rep.Complete() && tl != nil {
			want := oracle.Timeline(q.Interval.Start, q.Interval.End, 6, terms...)
			if len(tl) != len(want) {
				t.Fatalf("timeline query %d complete but diverged: %v vs %v", i, tl, want)
			}
		}
	}
}

// TestShardedCtxCancellation: a fired context is a hard error (the
// caller asked to stop), distinct from a per-shard deadline cut.
func TestShardedCtxCancellation(t *testing.T) {
	sh, _, _ := shardedWithTimeout(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := sh.SearchShardsCtx(ctx, 0, 20000, "t001")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scatter returned %v, want context.Canceled", err)
	}
	if _, err := sh.SearchCtx(ctx, 0, 20000, "t001"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SearchCtx returned %v, want context.Canceled", err)
	}
	if _, ok := temporalir.AsPartialError(err); ok {
		t.Fatal("context cancellation must not be classified as a partial result")
	}
}

// TestShardedBatchNoSilentTruncation cancels a batch mid-flight and
// asserts the satellite-3 contract: every row either carries its full
// result, a PartialError naming the cut shards, or the context error —
// no row is ever a silently truncated success.
func TestShardedBatchNoSilentTruncation(t *testing.T) {
	sh, oracle, _ := shardedWithTimeout(t, 0)
	rows := make([][]string, 64)
	for i := range rows {
		rows[i] = []string{termsFor([]temporalir.ElemID{temporalir.ElemID(i % 25)})[0]}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []temporalir.Result, 1)
	go func() { done <- sh.SearchTermsBatchCtx(ctx, 0, 20000, rows) }()
	time.Sleep(200 * time.Microsecond)
	cancel()
	results := <-done
	if len(results) != len(rows) {
		t.Fatalf("batch returned %d rows, want %d", len(results), len(rows))
	}
	completed, errored := 0, 0
	for i, r := range results {
		if r.Err != nil {
			errored++
			if pe, ok := temporalir.AsPartialError(r.Err); ok && pe.Report.Complete() {
				t.Fatalf("row %d: PartialError with a complete report", i)
			}
			continue
		}
		completed++
		want := oracle.Search(0, 20000, rows[i]...)
		if testutil.ResultChecksum(r.IDs) != testutil.ResultChecksum(want) {
			t.Fatalf("row %d returned success with truncated results: %v vs %v", i, r.IDs, want)
		}
	}
	t.Logf("batch after cancel: %d complete, %d errored", completed, errored)

	// Per-shard deadlines inside a batch surface as row-level
	// PartialErrors, never bare short rows.
	sh2, oracle2, _ := shardedWithTimeout(t, time.Nanosecond)
	results2 := sh2.SearchTermsBatchCtx(context.Background(), 0, 20000, rows)
	sawPartial := false
	for i, r := range results2 {
		if r.Err != nil {
			if pe, ok := temporalir.AsPartialError(r.Err); ok {
				sawPartial = true
				if pe.Report.Complete() {
					t.Fatalf("row %d: PartialError with complete report", i)
				}
			}
			continue
		}
		want := oracle2.Search(0, 20000, rows[i]...)
		if testutil.ResultChecksum(r.IDs) != testutil.ResultChecksum(want) {
			t.Fatalf("row %d: silent truncation under ShardTimeout: %v vs %v", i, r.IDs, want)
		}
	}
	if !sawPartial {
		t.Fatal("1ns per-shard deadline never produced a row-level PartialError across 64 rows")
	}
}
