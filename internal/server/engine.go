package server

import (
	"context"
	"io"

	temporalir "repro"
	"repro/internal/exec"
)

// Engine is the query/ingest surface the server requires of a tenant
// engine. Both *temporalir.Engine and *temporalir.Sharded satisfy it,
// so one server binary serves single-store and sharded deployments —
// the seed engine passed to New decides which, and every tenant gets a
// sibling of the seed's kind.
type Engine interface {
	// Save and Epoch drive the registry's spill/reload lifecycle.
	Save(w io.Writer) error
	Epoch() uint64

	Method() temporalir.Method
	IndexOptions() temporalir.Options
	Len() int
	SizeBytes() int64

	Insert(start, end temporalir.Timestamp, terms ...string) temporalir.ObjectID
	Delete(id temporalir.ObjectID) error
	Object(id temporalir.ObjectID) (temporalir.Interval, []string, error)
	// RefreshScorer is a no-op the server never calls; it is in the
	// interface because the frozen benchmark calls it through this type.
	RefreshScorer()

	Compact(ctx context.Context) (temporalir.CompactionStats, error)
	CompactStats() temporalir.CompactionStats

	PoolStats() exec.PoolStats
	RoutedMethods() []temporalir.Method
	RouteDecisions() []uint64

	SearchCtx(ctx context.Context, start, end temporalir.Timestamp, terms ...string) ([]temporalir.ObjectID, error)
	SearchTopKCtx(ctx context.Context, start, end temporalir.Timestamp, k int, terms ...string) ([]temporalir.ScoredResult, error)
	TimelineCtx(ctx context.Context, start, end temporalir.Timestamp, buckets int, terms ...string) ([]temporalir.TimelineBucket, error)
	SearchTermsBatchCtx(ctx context.Context, start, end temporalir.Timestamp, termRows [][]string) []temporalir.Result
}

// shardedEngine is the optional coordinator surface. When the tenant
// engine provides it, search handlers route through the *ShardsCtx
// variants so the response can carry the explicit partial-result
// contract (which shards were cut, never a silently truncated 200),
// /stats exposes the shard map, and the tir_shard_* metric family is
// registered.
type shardedEngine interface {
	Engine
	NumShards() int
	ShardStats() []temporalir.ShardStat
	CoordinatorStats() temporalir.CoordinatorStats
	SearchShardsCtx(ctx context.Context, start, end temporalir.Timestamp, terms ...string) ([]temporalir.ObjectID, temporalir.ShardReport, error)
	SearchTopKShardsCtx(ctx context.Context, start, end temporalir.Timestamp, k int, terms ...string) ([]temporalir.ScoredResult, temporalir.ShardReport, error)
	TimelineShardsCtx(ctx context.Context, start, end temporalir.Timestamp, buckets int, terms ...string) ([]temporalir.TimelineBucket, temporalir.ShardReport, error)
}

// Interface conformance is part of the package contract.
var (
	_ Engine        = (*temporalir.Engine)(nil)
	_ shardedEngine = (*temporalir.Sharded)(nil)
)
