package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	temporalir "repro"
	"repro/internal/model"
)

// ShardScaleRow is one row of the shard-count sweep: the same corpus
// streamed into an engine of a given shard count, then deleted
// from and compacted. Insert cost shrinks with per-shard store size and
// compaction fans out across shards, so both columns should improve
// with the shard count; queries pay a small merge tax in exchange.
type ShardScaleRow struct {
	Shards int `json:"shards"`
	// InsertsPerSec is streaming Insert throughput (one writer, the
	// engine's write API — routing plus per-shard memtable append).
	InsertsPerSec float64 `json:"inserts_per_sec"`
	// InsertSpeedup is InsertsPerSec relative to the 1-shard row.
	InsertSpeedup float64 `json:"insert_speedup"`
	// CompactMs is the wall time of one full compaction after deleting
	// a fifth of the corpus, with parallelism equal to the shard count.
	CompactMs float64 `json:"compact_ms"`
	// CompactSpeedup is the 1-shard CompactMs divided by this row's.
	CompactSpeedup float64 `json:"compact_speedup"`
	// QueryQPS is scatter-gather Search throughput over the default
	// workload — the merge tax the reader pays for write scaling.
	QueryQPS float64 `json:"query_qps"`
}

// ShardPartialRow records the partial-result demonstration: a 4-shard
// engine with a 1ns per-shard deadline answers the whole workload
// through SearchShardsCtx. Every response must either be complete or
// name its cut shards — Partial counts the latter, and the coordinator
// counters confirm nothing was dropped silently.
type ShardPartialRow struct {
	Shards         int    `json:"shards"`
	ShardTimeoutNs int64  `json:"shard_timeout_ns"`
	Queries        int    `json:"queries"`
	Complete       int    `json:"complete"`
	Partial        int    `json:"partial"`
	ShardsCut      uint64 `json:"shards_cut_total"`
	ShardsPruned   uint64 `json:"shards_pruned_total"`
}

// ShardJSONReport is the BENCH_pr10.json schema. Methods carries the
// same untraced_queries_per_sec rows as the earlier snapshots so
// cmd/benchdiff gates this artifact against BENCH_pr9.json directly;
// Scaling and Partial carry the sharded-engine evaluation.
type ShardJSONReport struct {
	Scale      float64         `json:"scale"`
	NumQueries int             `json:"num_queries"`
	Seed       int64           `json:"seed"`
	Objects    int             `json:"objects"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Methods    []ObsMethod     `json:"methods"`
	Scaling    []ShardScaleRow `json:"shard_scaling"`
	Partial    ShardPartialRow `json:"shard_partial"`
}

// shardCounts is the sweep of the scaling experiment.
var shardCounts = []int{1, 2, 4, 8}

// RunShardJSON measures the sharded engine: (1) every method's
// untraced throughput on the default workload — the benchdiff-gated
// rows; (2) streaming insert and parallel compaction throughput at
// 1/2/4/8 shards over one corpus; (3) the explicit partial-result
// contract under an absurd 1ns per-shard deadline. cfg.JSONPath
// receives the ShardJSONReport (BENCH_pr10.json).
func RunShardJSON(cfg Config) {
	cfg = cfg.Normalize()
	coll := syntheticDefault(cfg, nil)
	queries := defaultWorkload(coll, cfg)
	report := ShardJSONReport{
		Scale:      cfg.Scale,
		NumQueries: cfg.NumQueries,
		Seed:       cfg.Seed,
		Objects:    coll.Len(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// (1) The benchdiff-gated method rows.
	tbl := &Table{
		Title:  "Untraced throughput, default workload (benchdiff rows)",
		Header: []string{"method", "queries/s"},
	}
	methods := append([]temporalir.Method{temporalir.TIF}, temporalir.Methods()...)
	methods = append(methods, temporalir.Routed)
	for _, m := range methods {
		ix, _ := MeasureBuild(m, coll, temporalir.Options{})
		best := 0.0
		for i := 0; i < 5; i++ {
			if qps := Throughput(ix, queries); qps > best {
				best = qps
			}
		}
		report.Methods = append(report.Methods, ObsMethod{
			Method:      string(m),
			Label:       shortName(m),
			UntracedQPS: best,
		})
		tbl.Add(shortName(m), f0(best))
	}
	tbl.Fprint(cfg.Out)

	// (2) The shard-count sweep.
	stbl := &Table{
		Title:  "Shard scaling: one corpus, 1/2/4/8 shards",
		Header: []string{"shards", "inserts/s", "speedup", "compact ms", "speedup", "query q/s"},
	}
	lo, hi := corpusBounds(coll)
	for _, n := range shardCounts {
		row := runShardScale(coll, queries, n, lo, hi)
		if len(report.Scaling) > 0 {
			base := report.Scaling[0]
			row.InsertSpeedup = row.InsertsPerSec / base.InsertsPerSec
			if row.CompactMs > 0 {
				row.CompactSpeedup = base.CompactMs / row.CompactMs
			}
		} else {
			row.InsertSpeedup = 1
			row.CompactSpeedup = 1
		}
		report.Scaling = append(report.Scaling, row)
		stbl.Add(fmt.Sprint(n), f0(row.InsertsPerSec), f2(row.InsertSpeedup),
			f2(row.CompactMs), f2(row.CompactSpeedup), f0(row.QueryQPS))
	}
	stbl.Fprint(cfg.Out)

	// (3) The partial-result contract under a 1ns per-shard deadline.
	report.Partial = runShardPartial(coll, queries, lo, hi)
	ptbl := &Table{
		Title:  "Partial-result contract (4 shards, 1ns per-shard deadline)",
		Header: []string{"queries", "complete", "partial", "shards cut", "shards pruned"},
	}
	ptbl.Add(fmt.Sprint(report.Partial.Queries), fmt.Sprint(report.Partial.Complete),
		fmt.Sprint(report.Partial.Partial), fmt.Sprint(report.Partial.ShardsCut),
		fmt.Sprint(report.Partial.ShardsPruned))
	ptbl.Fprint(cfg.Out)

	if cfg.JSONPath == "" {
		return
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(cfg.Out, "shardjson: marshal: %v\n", err)
		return
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(cfg.JSONPath, blob, 0o644); err != nil {
		fmt.Fprintf(cfg.Out, "shardjson: write %s: %v\n", cfg.JSONPath, err)
		return
	}
	fmt.Fprintf(cfg.Out, "\nwrote %s\n", cfg.JSONPath)
}

// corpusBounds derives the time-range partition domain from the data.
func corpusBounds(coll *model.Collection) (lo, hi temporalir.Timestamp) {
	if coll.Len() == 0 {
		return 0, 1
	}
	lo, hi = coll.Objects[0].Interval.Start, coll.Objects[0].Interval.End
	for i := range coll.Objects {
		o := &coll.Objects[i]
		if o.Interval.Start < lo {
			lo = o.Interval.Start
		}
		if o.Interval.End > hi {
			hi = o.Interval.End
		}
	}
	return lo, hi
}

// newShardedOver constructs an empty time-range-partitioned engine for
// the sweep, with fan-out parallelism matching the shard count.
func newShardedOver(shards int, lo, hi temporalir.Timestamp) *temporalir.Engine {
	sh, err := temporalir.NewSharded(temporalir.TIF, temporalir.Options{}, temporalir.ShardedOptions{
		Shards:    shards,
		Partition: temporalir.PartitionTimeRange,
		Bounds:    temporalir.Interval{Start: lo, End: hi}, // lint:interval-ok corpusBounds guarantees lo <= hi
	})
	if err != nil {
		panic(err) // lint:panic-ok static configuration cannot fail
	}
	sh.SetParallelism(shards)
	return sh
}

// runShardScale streams the corpus into an n-shard engine and times
// the write path end to end: inserts, then a compaction after deleting
// every fifth object. Best of three trials for the insert rate.
func runShardScale(coll *model.Collection, queries []model.Query, n int, lo, hi temporalir.Timestamp) ShardScaleRow {
	row := ShardScaleRow{Shards: n}
	var final *temporalir.Engine
	for trial := 0; trial < 3; trial++ {
		sh := newShardedOver(n, lo, hi)
		start := time.Now()
		for i := range coll.Objects {
			o := &coll.Objects[i]
			terms := make([]string, len(o.Elems))
			for k, e := range o.Elems {
				terms[k] = fmt.Sprintf("e%d", e)
			}
			sh.Insert(o.Interval.Start, o.Interval.End, terms...)
		}
		if rate := float64(coll.Len()) / time.Since(start).Seconds(); rate > row.InsertsPerSec {
			row.InsertsPerSec = rate
		}
		final = sh
	}
	for i := 0; i < coll.Len(); i += 5 {
		if err := final.Delete(temporalir.ObjectID(i)); err != nil {
			panic(err) // lint:panic-ok ids are dense by construction
		}
	}
	start := time.Now()
	// irlint:ctx-root benchmark driver owns the process lifetime; there is no caller context to inherit
	if _, err := final.Compact(context.Background()); err != nil {
		panic(err) // lint:panic-ok background ctx cannot expire
	}
	row.CompactMs = float64(time.Since(start).Microseconds()) / 1000
	row.QueryQPS = shardedThroughput(final, queries)
	return row
}

// shardedThroughput is Throughput for the string-term surface of an engine over several stores.
func shardedThroughput(sh *temporalir.Engine, queries []model.Query) float64 {
	const minDuration = 20 * time.Millisecond
	if len(queries) == 0 {
		return 0
	}
	termRows := make([][]string, len(queries))
	for i, q := range queries {
		termRows[i] = queryTerms(q)
	}
	ran := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		for i, q := range queries {
			_ = sh.Search(q.Interval.Start, q.Interval.End, termRows[i]...)
			ran++
		}
	}
	return float64(ran) / time.Since(start).Seconds()
}

// runShardPartial exercises the explicit partial-result contract: with
// a 1ns per-shard deadline every answer must either carry all planned
// shards or name the cut ones. The returned row is the tally.
func runShardPartial(coll *model.Collection, queries []model.Query, lo, hi temporalir.Timestamp) ShardPartialRow {
	const shards = 4
	sh, err := temporalir.NewSharded(temporalir.TIF, temporalir.Options{}, temporalir.ShardedOptions{
		Shards:       shards,
		Partition:    temporalir.PartitionTimeRange,
		Bounds:       temporalir.Interval{Start: lo, End: hi}, // lint:interval-ok corpusBounds guarantees lo <= hi
		ShardTimeout: time.Nanosecond,
	})
	if err != nil {
		panic(err) // lint:panic-ok static configuration cannot fail
	}
	sh.SetParallelism(shards)
	for i := range coll.Objects {
		o := &coll.Objects[i]
		terms := make([]string, len(o.Elems))
		for k, e := range o.Elems {
			terms[k] = fmt.Sprintf("e%d", e)
		}
		sh.Insert(o.Interval.Start, o.Interval.End, terms...)
	}
	row := ShardPartialRow{Shards: shards, ShardTimeoutNs: 1, Queries: len(queries)}
	// irlint:ctx-root benchmark driver owns the process lifetime; there is no caller context to inherit
	ctx := context.Background()
	for _, q := range queries {
		_, rep, err := sh.SearchShardsCtx(ctx, q.Interval.Start, q.Interval.End, queryTerms(q)...)
		if err != nil {
			panic(err) // lint:panic-ok cut shards report, not error
		}
		if rep.Partial() {
			row.Partial++
		} else {
			row.Complete++
		}
	}
	cs := sh.CoordinatorStats()
	row.ShardsCut = cs.ShardsCut
	row.ShardsPruned = cs.ShardsPruned
	return row
}
