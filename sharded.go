package temporalir

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/maint"
	"repro/internal/model"
	"repro/internal/route"
	"repro/internal/shard"
)

// Sharded splits one corpus across N generational stores behind a
// scatter-gather coordinator: inserts route through a shard map
// (time-range partitioning by default, content hash for unbounded
// streams), every shard keeps its own memtable/tombstones/compaction so
// writes and compactions parallelize, and queries fan out over the
// planned shard set via the exec pool, merging per-shard results into
// exactly the answer one engine over the same corpus would give.
//
// Identity is global: all shards draw external ids from one shared
// allocator, so ids equal the single-engine insertion order and merged
// ascending-id results need no translation. The dictionary is shared
// too (one term space, one IDF statistic), guarded by dmu exactly as in
// Engine.
//
// Partial results are explicit: the *ShardsCtx query variants apply the
// configured per-shard deadline and report which shards were cut; the
// plain Engine-shaped variants either return everything or an error
// (PartialError when shards were cut) — never a silently truncated
// result.
type Sharded struct {
	// method and opts are immutable after construction.
	method Method
	opts   Options
	// sopts is the effective sharding configuration: partition kind and
	// bounds after fallback resolution, so a factory can spawn sibling
	// engines partitioned identically.
	sopts ShardedOptions

	// smap is the immutable object→shard assignment.
	smap shard.Map

	// dmu guards the shared dictionary, as in Engine.
	dmu sync.RWMutex
	// irlint:guarded-by dmu
	dict *dict.Dictionary

	// alloc is the shared external-id sequence; every shard store draws
	// from it so ids are globally unique and insertion-ordered.
	alloc *maint.IDAllocator

	// stores are the per-shard generational stores; each has its own
	// internal synchronization. The slice is immutable.
	stores []*maint.Store

	// routers holds each shard's adaptive router when method == Routed
	// (nil entries otherwise). Immutable after construction.
	routers []*route.Router

	// emu guards the per-shard observed time extents used for query
	// pruning. Extents only ever grow (inserts extend them before the
	// object becomes visible), so pruning is conservative: a pruned
	// shard cannot hold a match.
	emu sync.Mutex
	// irlint:guarded-by emu
	extents []extent

	// pool executes the scatter fan-out and batch rows; nil selects the
	// process-wide exec.Default.
	pool atomicPool

	// Coordinator counters, surfaced in ShardStats/metrics.
	queries      atomic.Uint64
	shardsCut    atomic.Uint64
	shardsPruned atomic.Uint64
}

// extent is one shard's observed [min, max] time envelope.
type extent struct {
	set      bool
	min, max Timestamp
}

// PartitionKind selects the sharding strategy; see shard.Kind.
type PartitionKind = shard.Kind

// Partitioning strategies for ShardedOptions.Partition.
const (
	// PartitionTimeRange cuts a bounded time domain into contiguous
	// per-shard slots (the default).
	PartitionTimeRange = shard.TimeRange
	// PartitionHash routes by content hash — the fallback for unbounded
	// streams.
	PartitionHash = shard.Hash
)

// DefaultShards is the shard count when ShardedOptions.Shards is zero.
const DefaultShards = 4

// ShardedOptions configures a sharded engine.
type ShardedOptions struct {
	// Shards is the shard count (0 selects DefaultShards).
	Shards int
	// Partition selects the strategy. PartitionTimeRange without Bounds
	// derives them from the data (BuildSharded) or falls back to
	// PartitionHash when there is no data to derive from.
	Partition PartitionKind
	// Bounds is the time-range domain for PartitionTimeRange. The zero
	// interval means "unbounded" and triggers derivation or fallback.
	Bounds Interval
	// ShardTimeout is the per-shard deadline the *ShardsCtx query
	// variants apply: a shard that has not answered within it is
	// reported as cut rather than awaited. Zero disables per-shard
	// deadlines (the query's own context still bounds the whole fan-
	// out). The plain (context-free) query methods never apply it —
	// without a report channel a deadline could only truncate silently.
	ShardTimeout time.Duration
}

// ShardReport describes how the coordinator executed one query; see
// shard.Report.
type ShardReport = shard.Report

// PartialError is returned by the Engine-shaped context variants
// (SearchCtx, SearchTopKCtx, TimelineCtx) when per-shard deadlines cut
// one or more shards: the merged result would be missing those shards'
// contribution, and this surface has no report channel, so the
// incompleteness is returned as an error instead of silence. Callers
// that want the partial rows use the *ShardsCtx variants.
type PartialError struct {
	Report ShardReport
}

// Error names the cut shards so logs show exactly what is missing.
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

// normalize resolves defaults and the time-range fallback. span is the
// data-derived domain ((0,0,false) when there is no data).
func (so ShardedOptions) normalize(spanLo, spanHi Timestamp, haveSpan bool) ShardedOptions {
	if so.Shards <= 0 {
		so.Shards = DefaultShards
	}
	if so.Partition == PartitionTimeRange && so.Bounds == (Interval{}) {
		if haveSpan {
			so.Bounds = NewInterval(spanLo, spanHi)
		} else {
			// Unbounded stream with nothing to derive from: hash.
			so.Partition = PartitionHash
		}
	}
	return so
}

// newMap builds the shard map for normalized options.
func (so ShardedOptions) newMap() (shard.Map, error) {
	if so.Partition == PartitionTimeRange {
		return shard.NewTimeRange(so.Shards, so.Bounds.Start, so.Bounds.End)
	}
	return shard.NewHash(so.Shards)
}

// NewSharded returns an empty sharded engine. With PartitionTimeRange
// and zero Bounds there is no data to derive a domain from, so the map
// falls back to content-hash partitioning.
func NewSharded(m Method, opts Options, so ShardedOptions) (*Sharded, error) {
	return buildSharded(dict.New(), &Collection{}, m, opts, so, nil, 0)
}

// BuildSharded constructs a sharded engine over the builder's objects,
// partitioning them through the shard map. Global ids are the builder's
// dense ids (insertion order), exactly what a single Build would have
// assigned. Like Build, the engine detaches from the builder.
func (b *Builder) BuildSharded(m Method, opts Options, so ShardedOptions) (*Sharded, error) {
	coll := &Collection{
		Objects:  append([]Object(nil), b.coll.Objects...),
		DictSize: b.coll.DictSize,
	}
	return buildSharded(b.dict.Clone(), coll, m, opts, so, nil, 0)
}

// buildSharded is the common construction path: partition coll through
// the map and wire per-shard stores around one shared allocator and
// dictionary. ext, when non-nil, supplies each object's stable external
// id (parallel to coll.Objects, the load path); nil selects the dense
// identity mapping. next is the allocator start when ext is non-nil.
func buildSharded(d *dict.Dictionary, coll *Collection, m Method, opts Options, so ShardedOptions, ext []ObjectID, next ObjectID) (*Sharded, error) {
	spanLo, spanHi := Timestamp(0), Timestamp(0)
	haveSpan := false
	if iv, ok := coll.Span(); ok {
		spanLo, spanHi, haveSpan = iv.Start, iv.End, true
	}
	so = so.normalize(spanLo, spanHi, haveSpan)
	smap, err := so.newMap()
	if err != nil {
		return nil, err
	}
	n := so.Shards

	if ext == nil {
		ext = make([]ObjectID, len(coll.Objects))
		for i := range ext {
			ext[i] = ObjectID(i)
		}
		next = ObjectID(len(coll.Objects))
	}
	alloc := maint.NewIDAllocator(next)

	// Partition: per-shard sub-collections with dense internal ids, the
	// global external id table split along the same assignment. ext is
	// ascending (insertion order), so each shard's subsequence is too.
	colls := make([]*Collection, n)
	exts := make([][]ObjectID, n)
	extents := make([]extent, n)
	for i := range colls {
		colls[i] = &Collection{DictSize: coll.DictSize}
	}
	for i := range coll.Objects {
		o := coll.Objects[i]
		si := smap.Route(o.Interval, o.Elems)
		o.ID = ObjectID(len(colls[si].Objects))
		colls[si].Objects = append(colls[si].Objects, o)
		exts[si] = append(exts[si], ext[i])
		ex := &extents[si]
		if !ex.set || o.Interval.Start < ex.min {
			ex.min = o.Interval.Start
		}
		if !ex.set || o.Interval.End > ex.max {
			ex.max = o.Interval.End
		}
		ex.set = true
	}

	s := &Sharded{
		method:  m,
		opts:    opts,
		sopts:   so,
		smap:    smap,
		dict:    d,
		alloc:   alloc,
		stores:  make([]*maint.Store, n),
		routers: make([]*route.Router, n),
		extents: extents,
	}
	for i := 0; i < n; i++ {
		store, router, err := newShardStore(m, opts, colls[i], exts[i], alloc)
		if err != nil {
			return nil, err
		}
		s.stores[i] = store
		s.routers[i] = router
	}
	return s, nil
}

// newShardStore builds one shard's index and generational store. The
// build closure mirrors newEngineWithIdentity's: it re-adopts the
// shard's router across compaction rebuilds.
func newShardStore(m Method, opts Options, coll *Collection, ext []ObjectID, alloc *maint.IDAllocator) (*maint.Store, *route.Router, error) {
	ix, err := NewIndex(m, coll, opts)
	if err != nil {
		return nil, nil, err
	}
	var router *route.Router
	if ri, ok := ix.(*route.Index); ok {
		router = ri.Router()
	}
	build := func(ctx context.Context, c *model.Collection) (maint.Index, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nix, err := NewIndex(m, c, opts)
		if err != nil {
			return nil, err
		}
		if ri, ok := nix.(*route.Index); ok {
			ri.AdoptRouter(router)
		}
		return nix, nil
	}
	return maint.NewStoreShared(coll, ix, build, ext, alloc), router, nil
}

// Method returns the per-shard index implementation in use.
func (s *Sharded) Method() Method { return s.method }

// IndexOptions returns the index construction options.
func (s *Sharded) IndexOptions() Options { return s.opts }

// ShardOptions returns the effective sharding configuration: shard
// count, resolved partition kind and bounds — what a factory needs to
// spawn sibling sharded engines partitioned identically.
func (s *Sharded) ShardOptions() ShardedOptions { return s.sopts }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.stores) }

// snapshotOne returns shard i's current immutable read generation.
func (s *Sharded) snapshotOne(i int) *maint.Generation { return s.stores[i].Snapshot() }

// Epoch sums the shard epochs. Each shard's epoch is monotonic, so the
// sum advances on every published mutation anywhere in the engine —
// the dirtiness signal the tenant registry's spill path needs.
func (s *Sharded) Epoch() uint64 {
	var sum uint64
	for i := range s.stores {
		sum += s.snapshotOne(i).Epoch()
	}
	return sum
}

// Len returns the number of live objects across all shards.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.stores {
		n += s.snapshotOne(i).Len()
	}
	return n
}

// SizeBytes sums the shards' resident size estimates.
func (s *Sharded) SizeBytes() int64 {
	var n int64
	for i := range s.stores {
		n += s.snapshotOne(i).SizeBytes()
	}
	return n
}

// Insert adds one object: terms intern into the shared dictionary, the
// map routes the object to its shard, and the shard's memtable accepts
// it under a globally allocated id — the id a single engine fed the
// same insert sequence would have handed out.
func (s *Sharded) Insert(start, end Timestamp, terms ...string) ObjectID {
	iv := NewInterval(start, end) // validate before interning any terms
	s.dmu.Lock()
	elems := s.dict.AddObject(terms)
	ds := s.dict.Len()
	s.dmu.Unlock()
	si := s.smap.Route(iv, elems)
	// Extend the extent before the object becomes visible so planning
	// stays conservative: a query planned mid-insert may fan out to a
	// still-empty shard (harmless) but can never prune a populated one.
	s.emu.Lock()
	ex := &s.extents[si]
	if !ex.set || iv.Start < ex.min {
		ex.min = iv.Start
	}
	if !ex.set || iv.End > ex.max {
		ex.max = iv.End
	}
	ex.set = true
	s.emu.Unlock()
	return s.stores[si].Append(iv, elems, ds)
}

// Delete tombstones an object by global id, locating its shard by id
// lookup. Unknown ids are an error, as in Engine.Delete.
func (s *Sharded) Delete(id ObjectID) error {
	for i := range s.stores {
		if _, ok := s.snapshotOne(i).Internal(id); ok {
			s.stores[i].Delete(id)
			return nil
		}
	}
	return fmt.Errorf("temporalir: unknown object %d", id)
}

// Object returns the lifespan and terms of an object by global id.
func (s *Sharded) Object(id ObjectID) (Interval, []string, error) {
	for i := range s.stores {
		g := s.snapshotOne(i)
		o, ok := g.Lookup(id)
		if !ok {
			continue
		}
		s.dmu.RLock()
		terms := make([]string, len(o.Elems))
		for k, el := range o.Elems {
			terms[k] = s.dict.Term(el)
		}
		s.dmu.RUnlock()
		return o.Interval, terms, nil
	}
	return Interval{}, nil, fmt.Errorf("temporalir: unknown object %d", id)
}

// RefreshScorer does nothing, as Engine.RefreshScorer.
//
// Deprecated: kept only because the frozen benchmark still calls it.
func (s *Sharded) RefreshScorer() {}

// SetCompactionPolicy installs the automatic-compaction policy on every
// shard. Thresholds apply per shard — that is the point: N memtables
// and N compactions proceed independently and in parallel.
func (s *Sharded) SetCompactionPolicy(p CompactionPolicy) {
	for i := range s.stores {
		s.stores[i].SetPolicy(p)
	}
}

// Compact compacts every shard in parallel over the engine's pool and
// aggregates the outcome. Per-shard failures (including
// ErrCompactionRunning on shards with a background pass in flight) are
// joined; shards that succeed still compact.
func (s *Sharded) Compact(ctx context.Context) (CompactionStats, error) {
	pool := s.executor()
	errs := make([]error, len(s.stores))
	pool.Map(len(s.stores), func(i int) {
		_, errs[i] = s.stores[i].Compact(ctx)
	})
	return s.CompactStats(), errors.Join(errs...)
}

// CompactStats aggregates the shards' generational state: counts and
// totals sum; the Last* phase durations take the slowest shard (the
// wall-time view of a parallel compaction); InProgress is true while
// any shard compacts.
func (s *Sharded) CompactStats() CompactionStats {
	var out CompactionStats
	objects := 0
	for i := range s.stores {
		st := s.stores[i].Stats()
		out.Epoch += st.Epoch
		out.Compactions += st.Compactions
		out.InProgress = out.InProgress || st.InProgress
		out.BaseObjects += st.BaseObjects
		out.MemObjects += st.MemObjects
		out.MemBytes += st.MemBytes
		out.Tombstones += st.Tombstones
		out.LastDropped += st.LastDropped
		out.LastMerged += st.LastMerged
		out.TotalDuration += st.TotalDuration
		out.TotalDropped += st.TotalDropped
		out.TotalMerged += st.TotalMerged
		out.ReclaimedBytes += st.ReclaimedBytes
		if st.LastDuration > out.LastDuration {
			out.LastDuration = st.LastDuration
		}
		if st.LastCopy > out.LastCopy {
			out.LastCopy = st.LastCopy
		}
		if st.LastBuild > out.LastBuild {
			out.LastBuild = st.LastBuild
		}
		if st.LastSwap > out.LastSwap {
			out.LastSwap = st.LastSwap
		}
		objects += st.BaseObjects + st.MemObjects
	}
	if objects > 0 {
		out.DeadRatio = float64(out.Tombstones) / float64(objects)
	}
	return out
}

// SetParallelism replaces the engine's worker pool (n <= 0 restores the
// shared GOMAXPROCS default), bounding how many shards and batch rows
// run at once.
func (s *Sharded) SetParallelism(n int) {
	if n <= 0 {
		s.pool.Store(nil)
		return
	}
	s.pool.Store(exec.NewPool(n))
}

// executor returns the engine's pool (the shared default unless
// SetParallelism installed one).
func (s *Sharded) executor() *exec.Pool {
	if p := s.pool.Load(); p != nil {
		return p
	}
	return exec.Default()
}

// PoolStats returns the fan-out counters of the current worker pool.
func (s *Sharded) PoolStats() exec.PoolStats { return s.executor().Stats() }

// RoutedMethods returns the sub-methods the shards' routers dispatch
// across (every shard routes over the same set), or nil when the engine
// does not use the Routed method.
func (s *Sharded) RoutedMethods() []Method {
	if len(s.routers) == 0 || s.routers[0] == nil {
		return nil
	}
	names := s.routers[0].Methods()
	ms := make([]Method, len(names))
	for i, n := range names {
		ms[i] = Method(n)
	}
	return ms
}

// RouteDecisions sums each sub-method's routing decisions across the
// shard routers, aligned with RoutedMethods; nil for non-routed
// engines.
func (s *Sharded) RouteDecisions() []uint64 {
	if len(s.routers) == 0 || s.routers[0] == nil {
		return nil
	}
	out := make([]uint64, len(s.routers[0].Methods()))
	for _, r := range s.routers {
		if r == nil {
			continue
		}
		for i := range out {
			out[i] += r.Decisions(i)
		}
	}
	return out
}

// ShardStat is one shard's row in ShardStats.
type ShardStat struct {
	Shard       int    `json:"shard"`
	Objects     int    `json:"objects"`
	MemObjects  int    `json:"memtable_objects"`
	Tombstones  int    `json:"tombstones"`
	SizeBytes   int64  `json:"size_bytes"`
	Epoch       uint64 `json:"epoch"`
	Compactions uint64 `json:"compactions"`
	// HasExtent is false for a shard that never held an object; the
	// extent fields are meaningless then.
	HasExtent   bool      `json:"has_extent"`
	ExtentStart Timestamp `json:"extent_start,omitempty"`
	ExtentEnd   Timestamp `json:"extent_end,omitempty"`
}

// ShardStats returns one row per shard.
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.stores))
	s.emu.Lock()
	extents := append([]extent(nil), s.extents...)
	s.emu.Unlock()
	for i := range s.stores {
		g := s.snapshotOne(i)
		st := s.stores[i].Stats()
		out[i] = ShardStat{
			Shard:       i,
			Objects:     g.Len(),
			MemObjects:  st.MemObjects,
			Tombstones:  st.Tombstones,
			SizeBytes:   g.SizeBytes(),
			Epoch:       st.Epoch,
			Compactions: st.Compactions,
			HasExtent:   extents[i].set,
			ExtentStart: extents[i].min,
			ExtentEnd:   extents[i].max,
		}
	}
	return out
}

// CoordinatorStats summarizes the scatter-gather coordinator: shard
// layout plus cumulative query/cut/prune counters.
type CoordinatorStats struct {
	Shards       int    `json:"shards"`
	Partition    string `json:"partition"`
	Queries      uint64 `json:"queries"`
	ShardsCut    uint64 `json:"shards_cut"`
	ShardsPruned uint64 `json:"shards_pruned"`
}

// CoordinatorStats returns the coordinator's cumulative counters.
func (s *Sharded) CoordinatorStats() CoordinatorStats {
	return CoordinatorStats{
		Shards:       len(s.stores),
		Partition:    s.smap.Kind().String(),
		Queries:      s.queries.Load(),
		ShardsCut:    s.shardsCut.Load(),
		ShardsPruned: s.shardsPruned.Load(),
	}
}

// plan selects the shards whose observed extent can overlap the query
// interval. Extents only grow, so skipping a non-overlapping shard can
// never lose a match; shards that never held an object are skipped too.
func (s *Sharded) plan(iv Interval) (planned []int, pruned int) {
	s.emu.Lock()
	defer s.emu.Unlock()
	for i := range s.extents {
		ex := &s.extents[i]
		if !ex.set || ex.max < iv.Start || iv.End < ex.min {
			pruned++
			continue
		}
		planned = append(planned, i)
	}
	return planned, pruned
}
