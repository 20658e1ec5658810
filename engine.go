package temporalir

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/maint"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/shard"
)

// Builder accumulates objects described by string terms, interning them
// into the global dictionary, and finally constructs an Engine around any
// index method. It is the convenience layer the examples use; performance
// code can work with Collection and ElemIDs directly.
type Builder struct {
	dict *dict.Dictionary
	coll Collection
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{dict: dict.New()}
}

// Add records one object: a lifespan and its descriptive terms. Terms are
// deduplicated; the assigned ObjectID is returned. It panics if
// start > end, matching NewInterval.
func (b *Builder) Add(start, end Timestamp, terms ...string) ObjectID {
	elems := b.dict.AddObject(terms)
	iv := NewInterval(start, end)
	id := ObjectID(len(b.coll.Objects))
	b.coll.Objects = append(b.coll.Objects, Object{ID: id, Interval: iv, Elems: elems})
	if b.dict.Len() > b.coll.DictSize {
		b.coll.DictSize = b.dict.Len()
	}
	return id
}

// Len returns the number of objects added so far.
func (b *Builder) Len() int { return b.coll.Len() }

// Build constructs a one-store Engine over the accumulated objects. The
// engine is fully detached from the builder: further Add calls affect
// neither the engine's collection nor its dictionary, so one builder can
// seed many engines (or keep accumulating) safely.
func (b *Builder) Build(m Method, opts Options) (*Engine, error) {
	return b.BuildSharded(m, opts, ShardedOptions{Shards: 1})
}

// BuildSharded constructs an engine over the builder's objects,
// partitioning them across so's stores through the shard map. Ids are
// the builder's dense ids (insertion order) at every store count. Like
// Build, the engine detaches from the builder.
func (b *Builder) BuildSharded(m Method, opts Options, so ShardedOptions) (*Engine, error) {
	coll := &Collection{
		Objects:  append([]Object(nil), b.coll.Objects...),
		DictSize: b.coll.DictSize,
	}
	return buildEngine(b.dict.Clone(), coll, m, opts, so, nil, 0)
}

// Engine answers time-travel IR queries over one corpus split across
// N ≥ 1 generational stores, exposing a string-term search surface. A
// single store is simply N = 1: its queries skip planning, scatter and
// merge and run on the caller's goroutine.
//
// Inserts route through a shard map (time-range partitioning by default,
// content hash for unbounded streams), and every store keeps its own
// memtable, tombstones and compaction, so writes and compactions
// parallelize. Queries over several stores fan out over the stores whose
// extents can overlap the interval and merge their answers into exactly
// the answer one store over the same corpus would give.
//
// Identity is global: every store draws external ids from one shared
// allocator, so ids follow insertion order whatever the store count.
// The dictionary is shared too (one term space).
//
// An Engine is safe for concurrent use, and reads never wait on
// writers: every read — a query, a batch, a Save, the counters — runs
// against one view of immutable generations (main index + memtable +
// tombstones + extent), one per store, obtained with one atomic load
// for the whole engine, so it reflects one instant of every store.
// Insert and Delete publish new generations, and Compact folds
// accumulated changes into a freshly built main index off the read path
// (see internal/maint.Set).
type Engine struct {
	// method, opts, sopts and smap are immutable after construction.
	method Method
	opts   Options
	// sopts is the effective store layout: partition kind and bounds
	// after fallback resolution, so a factory can spawn sibling engines
	// partitioned identically.
	sopts ShardedOptions
	// smap is the object→store assignment.
	smap shard.Map

	// dmu guards only the dictionary: term interning on Insert vs. term
	// resolution on the search surface. Critical sections are tiny (map
	// lookups), never held across index scans.
	dmu sync.RWMutex
	// Guarded by dmu.
	dict *dict.Dictionary

	// set owns the generational object/index state of every store, the
	// shared external-id sequence and the one view readers load.
	set *maint.Set

	// routers holds each store's adaptive router when method == Routed
	// (nil entries otherwise). Immutable after construction; the
	// routers' own state is atomic.
	routers []*route.Router

	// pool executes the scatter fan-out, batch rows and parallel
	// compaction; nil selects the process-wide exec.Default. Replaced
	// wholesale by SetParallelism.
	pool atomicPool

	// Coordinator counters, surfaced in CoordinatorStats and metrics.
	queries      atomic.Uint64
	shardsPruned atomic.Uint64
}

// PartitionKind selects the sharding strategy; see shard.Kind.
type PartitionKind = shard.Kind

// Partitioning strategies for ShardedOptions.Partition.
const (
	// PartitionTimeRange cuts a bounded time domain into contiguous
	// per-store slots (the default).
	PartitionTimeRange = shard.TimeRange
	// PartitionHash routes by content hash — the fallback for unbounded
	// streams.
	PartitionHash = shard.Hash
)

// DefaultShards is the store count when ShardedOptions.Shards is zero.
const DefaultShards = 4

// ShardedOptions configures how an engine splits its corpus.
type ShardedOptions struct {
	// Shards is the store count (0 selects DefaultShards).
	Shards int
	// Partition selects the strategy. PartitionTimeRange without Bounds
	// derives them from the data (BuildSharded) or falls back to
	// PartitionHash when there is no data to derive from.
	Partition PartitionKind
	// Bounds is the time-range domain for PartitionTimeRange. The zero
	// interval means "unbounded" and triggers derivation or fallback.
	Bounds Interval
}

// normalize resolves defaults and the time-range fallback. span is the
// data-derived domain (ok is false when there is no data).
func (so ShardedOptions) normalize(span Interval, ok bool) ShardedOptions {
	if so.Shards <= 0 {
		so.Shards = DefaultShards
	}
	if so.Partition == PartitionTimeRange && so.Bounds == (Interval{}) {
		if ok {
			so.Bounds = span
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

// NewSharded returns an empty engine with so's store layout. With
// PartitionTimeRange and zero Bounds there is no data to derive a domain
// from, so the map falls back to content-hash partitioning.
func NewSharded(m Method, opts Options, so ShardedOptions) (*Engine, error) {
	return buildEngine(dict.New(), &Collection{}, m, opts, so, nil, 0)
}

// EngineFromCollection builds a one-store Engine directly over an
// element-id collection, synthesizing placeholder terms ("e0", "e1",
// ...) for the dictionary — the bridge from the id-level data path
// (synthetic corpora, benchmarks) to the full engine lifecycle. The
// collection is copied; the caller's slice stays detached.
func EngineFromCollection(c *Collection, m Method, opts Options) (*Engine, error) {
	return engineFromCollection(c, m, opts, ShardedOptions{Shards: 1})
}

func engineFromCollection(c *Collection, m Method, opts Options, so ShardedOptions) (*Engine, error) {
	coll := &Collection{
		Objects:  append([]Object(nil), c.Objects...),
		DictSize: c.DictSize,
	}
	terms := make([]string, coll.DictSize)
	for i := range terms {
		terms[i] = fmt.Sprintf("e%d", i)
	}
	d := dict.FromTerms(terms)
	for i := range coll.Objects {
		d.AddElems(coll.Objects[i].Elems)
	}
	return buildEngine(d, coll, m, opts, so, nil, 0)
}

// buildEngine is the one construction path: partition coll through the
// shard map and wire per-store generational stores around one shared
// allocator and dictionary. The collection must be detached and use
// dense position ids (Objects[i].ID == i). ext, when non-nil, supplies
// each object's stable external id (parallel to coll.Objects, the load
// path) and next the allocator start; nil selects the dense identity
// mapping.
func buildEngine(d *dict.Dictionary, coll *Collection, m Method, opts Options, so ShardedOptions, ext []ObjectID, next ObjectID) (*Engine, error) {
	span, haveSpan := coll.Span()
	so = so.normalize(span, haveSpan)
	smap, err := so.newMap()
	if err != nil {
		return nil, err
	}
	if ext == nil {
		ext = make([]ObjectID, len(coll.Objects))
		for i := range ext {
			ext[i] = ObjectID(i)
		}
		next = ObjectID(len(coll.Objects))
	}
	colls, exts := partition(coll, ext, smap)
	parts := make([]maint.Part, len(colls))
	routers := make([]*route.Router, len(colls))
	for i := range colls {
		if parts[i], routers[i], err = newPart(m, opts, colls[i], exts[i]); err != nil {
			return nil, err
		}
	}
	return &Engine{
		method:  m,
		opts:    opts,
		sopts:   so,
		smap:    smap,
		dict:    d,
		set:     maint.NewSet(parts, next),
		routers: routers,
	}, nil
}

// partition splits coll across the map's stores: per-store collections
// with dense internal ids and the external id table split along the same
// assignment (ext is ascending, so each store's subsequence is too). One
// store takes coll and ext whole.
func partition(coll *Collection, ext []ObjectID, smap shard.Map) ([]*Collection, [][]ObjectID) {
	n := smap.N()
	if n == 1 {
		return []*Collection{coll}, [][]ObjectID{ext}
	}
	colls := make([]*Collection, n)
	exts := make([][]ObjectID, n)
	for i := range colls {
		colls[i] = &Collection{DictSize: coll.DictSize}
	}
	for i := range coll.Objects {
		o := coll.Objects[i]
		si := smap.Route(o.Interval, o.Elems)
		o.ID = ObjectID(len(colls[si].Objects))
		colls[si].Objects = append(colls[si].Objects, o)
		exts[si] = append(exts[si], ext[i])
	}
	return colls, exts
}

// newPart builds one store's index and compaction rebuild. For the
// Routed method the rebuild re-adopts the store's router, so the learned
// cost model survives compaction.
func newPart(m Method, opts Options, coll *Collection, ext []ObjectID) (maint.Part, *route.Router, error) {
	ix, err := NewIndex(m, coll, opts)
	if err != nil {
		return maint.Part{}, nil, err
	}
	var router *route.Router
	if ri, ok := ix.(*route.Index); ok {
		router = ri.Router()
	}
	build := func(ctx context.Context, c *Collection) (Index, error) {
		// Index construction itself is not interruptible, so honor a
		// cancellation that arrived before the rebuild started.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nix, err := NewIndex(m, c, opts)
		if err != nil {
			return nil, err
		}
		if ri, ok := nix.(*route.Index); ok {
			// The new index has not been published yet — the store
			// swaps it in only after this hook returns — so the mutation
			// happens strictly before any reader can see it.
			ri.AdoptRouter(router)
		}
		return nix, nil
	}
	return maint.Part{Coll: coll, Base: ix, Build: build, Ext: ext}, router, nil
}

// lookupLocked resolves one term. Callers must hold e.dmu (read or
// write).
func (e *Engine) lookupLocked(term string) (ElemID, bool) {
	assertEngineLocked(&e.dmu, "Engine.lookupLocked")
	return e.dict.Lookup(term)
}

// resolveTermsTraced maps terms to element ids under the dictionary
// lock and a plan span — term resolution is the planning step of the
// string search surface — reporting ok=false if any term is unknown (the
// conjunction cannot be satisfied then).
func (e *Engine) resolveTermsTraced(tr *obs.Trace, terms []string) ([]ElemID, bool) {
	defer tr.StartStage(obs.StagePlan).End()
	e.dmu.RLock()
	defer e.dmu.RUnlock()
	return e.lookupAllLocked(terms)
}

// lookupAllLocked resolves every term, reporting ok=false at the first
// unknown one. Callers must hold e.dmu (read or write).
func (e *Engine) lookupAllLocked(terms []string) ([]ElemID, bool) {
	elems := make([]ElemID, 0, len(terms))
	for _, t := range terms {
		id, ok := e.lookupLocked(t)
		if !ok {
			return nil, false
		}
		elems = append(elems, id)
	}
	return elems, true
}

// Method returns the index implementation in use.
func (e *Engine) Method() Method { return e.method }

// IndexOptions returns the construction options the engine was built
// with — what a factory needs to spawn sibling engines of the same
// configuration (the multi-tenant registry's create-on-first-use path).
func (e *Engine) IndexOptions() Options { return e.opts }

// ShardOptions returns the effective store layout: store count,
// resolved partition kind and bounds — what a factory needs to spawn
// sibling engines partitioned identically.
func (e *Engine) ShardOptions() ShardedOptions { return e.sopts }

// NumShards returns the store count.
func (e *Engine) NumShards() int { return len(e.set.Stores()) }

// Epoch sums the store epochs. Each store's epoch advances on every
// published mutation (insert, delete, compaction) and on nothing else,
// so owners managing many engines — the tenant registry's evict-to-disk
// path — can cheaply detect whether an engine changed since a snapshot
// was last saved.
func (e *Engine) Epoch() uint64 {
	var sum uint64
	for _, g := range e.set.View() {
		sum += g.Epoch()
	}
	return sum
}

// Len returns the number of live (non-tombstoned) objects.
func (e *Engine) Len() int {
	n := 0
	for _, g := range e.set.View() {
		n += g.Len()
	}
	return n
}

// SizeBytes estimates the engine's resident size: main indices,
// memtables, tombstones and the id-translation tables.
func (e *Engine) SizeBytes() int64 {
	var n int64
	for _, g := range e.set.View() {
		n += g.SizeBytes()
	}
	return n
}

// Insert adds a new object, returning its id: terms intern into the
// shared dictionary, the map routes the object to its store, and the
// store's memtable accepts it under the next id of the shared sequence.
// The id is stable: it survives compaction even though the underlying
// index is rebuilt with dense internal ids.
func (e *Engine) Insert(start, end Timestamp, terms ...string) ObjectID {
	iv := NewInterval(start, end) // validate before interning any terms
	e.dmu.Lock()
	elems := e.dict.AddObject(terms)
	ds := e.dict.Len()
	e.dmu.Unlock()
	return e.set.Stores()[e.smap.Route(iv, elems)].Append(iv, elems, ds)
}

// Delete tombstones an object by id; the next compaction physically
// removes it. Deleting an unknown (or already compacted-away) id is an
// error; deleting an already-tombstoned id is a no-op.
func (e *Engine) Delete(id ObjectID) error {
	for i, g := range e.set.View() {
		if _, ok := g.Internal(id); ok {
			e.set.Stores()[i].Delete(id)
			return nil
		}
	}
	return fmt.Errorf("temporalir: unknown object %d", id)
}

// Object returns the lifespan and terms of an object.
func (e *Engine) Object(id ObjectID) (Interval, []string, error) {
	for _, g := range e.set.View() {
		if o, ok := g.Lookup(id); ok {
			return o.Interval, e.termsOf(o.Elems), nil
		}
	}
	return Interval{}, nil, fmt.Errorf("temporalir: unknown object %d", id)
}

// termsOf spells element ids as their dictionary terms.
func (e *Engine) termsOf(elems []ElemID) []string {
	e.dmu.RLock()
	defer e.dmu.RUnlock()
	terms := make([]string, len(elems))
	for i, el := range elems {
		terms[i] = e.dict.Term(el)
	}
	return terms
}

// SetCompactionPolicy installs (or, with the zero value, disables)
// automatic background compaction, triggered after Insert/Delete when
// the memtable or tombstone thresholds are crossed. Thresholds apply
// per store, so N memtables and N compactions proceed independently.
func (e *Engine) SetCompactionPolicy(p CompactionPolicy) {
	for _, s := range e.set.Stores() {
		s.SetPolicy(p)
	}
}

// Compact compacts every store in parallel over the engine's pool: each
// merges its memtable into the object store, physically drops
// tombstoned objects, rebuilds its index off the read path and
// atomically swaps in the new generation (see maint.Store.Compact).
// Queries keep running against the old generations throughout.
// Per-store failures (ErrCompactionRunning where a compaction is
// already in flight) are joined; stores that succeed still compact.
func (e *Engine) Compact(ctx context.Context) (CompactionStats, error) {
	stores := e.set.Stores()
	errs := make([]error, len(stores))
	e.executor().Map(len(stores), func(i int) {
		_, errs[i] = stores[i].Compact(ctx)
	})
	return e.CompactStats(), errors.Join(errs...)
}

// CompactStats aggregates the stores' generational state and
// compaction history: counts and totals sum; the Last* phase durations
// take the slowest store (the wall-time view of a parallel compaction);
// InProgress is true while any store compacts.
func (e *Engine) CompactStats() CompactionStats {
	var out CompactionStats
	objects := 0
	for _, s := range e.set.Stores() {
		st := s.Stats()
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
		out.LastDuration = max(out.LastDuration, st.LastDuration)
		out.LastCopy = max(out.LastCopy, st.LastCopy)
		out.LastBuild = max(out.LastBuild, st.LastBuild)
		out.LastSwap = max(out.LastSwap, st.LastSwap)
		objects += st.BaseObjects + st.MemObjects
	}
	if objects > 0 {
		out.DeadRatio = float64(out.Tombstones) / float64(objects)
	}
	return out
}

// RoutedMethods returns the sub-methods a routed engine dispatches
// across, in decision order (every store routes over the same set), or
// nil when the engine does not use the Routed method.
func (e *Engine) RoutedMethods() []Method {
	if e.routers[0] == nil {
		return nil
	}
	names := e.routers[0].Methods()
	ms := make([]Method, len(names))
	for i, n := range names {
		ms[i] = Method(n)
	}
	return ms
}

// RouteDecisions returns the number of queries routed to each
// sub-method, summed across the stores' routers and aligned with
// RoutedMethods, or nil for non-routed engines. Counts accumulate
// across compactions (the routers survive rebuilds).
func (e *Engine) RouteDecisions() []uint64 {
	if e.routers[0] == nil {
		return nil
	}
	out := make([]uint64, len(e.routers[0].Methods()))
	for _, r := range e.routers {
		for i := range out {
			out[i] += r.Decisions(i)
		}
	}
	return out
}

// ShardStat is one store's row in ShardStats.
type ShardStat struct {
	Shard       int    `json:"shard"`
	Objects     int    `json:"objects"`
	MemObjects  int    `json:"memtable_objects"`
	Tombstones  int    `json:"tombstones"`
	SizeBytes   int64  `json:"size_bytes"`
	Epoch       uint64 `json:"epoch"`
	Compactions uint64 `json:"compactions"`
	// HasExtent is false for a store that holds no object (none yet, or
	// none left after a compaction); the extent fields are meaningless
	// then.
	HasExtent   bool      `json:"has_extent"`
	ExtentStart Timestamp `json:"extent_start,omitempty"`
	ExtentEnd   Timestamp `json:"extent_end,omitempty"`
}

// ShardStats returns one row per store, every row from one view except
// the compaction count.
func (e *Engine) ShardStats() []ShardStat {
	view := e.set.View()
	out := make([]ShardStat, len(view))
	for i, g := range view {
		x, ok := g.Extent()
		out[i] = ShardStat{
			Shard:       i,
			Objects:     g.Len(),
			MemObjects:  g.MemLen(),
			Tombstones:  g.TombstoneCount(),
			SizeBytes:   g.SizeBytes(),
			Epoch:       g.Epoch(),
			Compactions: e.set.Stores()[i].Stats().Compactions,
			HasExtent:   ok,
			ExtentStart: x.Start,
			ExtentEnd:   x.End,
		}
	}
	return out
}

// CoordinatorStats summarizes the query coordinator: store layout plus
// cumulative query/prune counters.
type CoordinatorStats struct {
	Shards       int    `json:"shards"`
	Partition    string `json:"partition"`
	Queries      uint64 `json:"queries"`
	ShardsPruned uint64 `json:"shards_pruned"`
}

// CoordinatorStats returns the coordinator's cumulative counters.
func (e *Engine) CoordinatorStats() CoordinatorStats {
	return CoordinatorStats{
		Shards:       len(e.set.Stores()),
		Partition:    e.smap.Kind().String(),
		Queries:      e.queries.Load(),
		ShardsPruned: e.shardsPruned.Load(),
	}
}
