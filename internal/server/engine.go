package server

import (
	"context"
	"io"

	temporalir "repro"
	"repro/internal/exec"
)

// Engine is the query/ingest surface the server requires of a tenant
// engine; *temporalir.Engine satisfies it at any store count. The seed
// engine passed to New decides the store layout, and every tenant gets
// a sibling with the seed's layout.
type Engine interface {
	// Save and Epoch drive the registry's spill/reload lifecycle.
	Save(w io.Writer) error
	Epoch() uint64

	Method() temporalir.Method
	IndexOptions() temporalir.Options
	ShardOptions() temporalir.ShardedOptions
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
	NumShards() int
	ShardStats() []temporalir.ShardStat
	CoordinatorStats() temporalir.CoordinatorStats

	// Every query runs each planned store to completion under ctx: its
	// answer is complete, or an error once ctx fires.
	SearchCtx(ctx context.Context, start, end temporalir.Timestamp, terms ...string) ([]temporalir.ObjectID, error)
	SearchTopKCtx(ctx context.Context, start, end temporalir.Timestamp, k int, terms ...string) ([]temporalir.ScoredResult, error)
	TimelineCtx(ctx context.Context, start, end temporalir.Timestamp, buckets int, terms ...string) ([]temporalir.TimelineBucket, error)
	SearchTermsBatchCtx(ctx context.Context, start, end temporalir.Timestamp, termRows [][]string) []temporalir.Result
}

// Interface conformance is part of the package contract.
var _ Engine = (*temporalir.Engine)(nil)
