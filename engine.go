package temporalir

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/aggregate"
	"repro/internal/dict"
	"repro/internal/maint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/route"
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

// Build constructs an Engine over the accumulated objects. The engine is
// fully detached from the builder: further Add calls affect neither the
// engine's collection nor its dictionary, so one builder can seed many
// engines (or keep accumulating) safely.
func (b *Builder) Build(m Method, opts Options) (*Engine, error) {
	coll := &Collection{
		Objects:  append([]Object(nil), b.coll.Objects...),
		DictSize: b.coll.DictSize,
	}
	return newEngine(b.dict.Clone(), coll, m, opts)
}

// Engine pairs a generational store with the dictionary, exposing a
// string-term search surface. An Engine is safe for concurrent use, and
// reads never wait on writers: every query runs against an immutable
// generation snapshot (main index + memtable + tombstones) obtained with
// one atomic load; Insert and Delete publish new generations, and
// Compact folds accumulated changes into a freshly built main index off
// the read path (see internal/maint).
type Engine struct {
	// method and opts are immutable after construction and need no guard.
	method Method
	opts   Options

	// router is the adaptive cost model shared by every generation of a
	// Routed engine (nil otherwise). The pointer is immutable after
	// construction; the router's own state is atomic.
	router *route.Router

	// dmu guards only the dictionary: term interning on Insert vs. term
	// resolution on the search surface. Critical sections are tiny (map
	// lookups), never held across index scans.
	dmu sync.RWMutex
	// irlint:guarded-by dmu
	dict *dict.Dictionary

	// store owns the generational object/index state; it has its own
	// internal synchronization.
	store *maint.Store

	// pool executes batch rows; nil selects the process-wide
	// exec.Default. Replaced wholesale by SetParallelism.
	pool atomicPool
}

// newEngine wires a dictionary, a detached collection and a generational
// store into an Engine. The collection must use dense position ids
// (Objects[i].ID == i), which Builder, LoadEngine and
// EngineFromCollection all guarantee.
func newEngine(d *dict.Dictionary, coll *Collection, m Method, opts Options) (*Engine, error) {
	return newEngineWithIdentity(d, coll, m, opts, nil, 0)
}

// newEngineWithIdentity is newEngine with an explicit external-id table
// and next-id counter (nil ext selects the dense identity mapping) —
// the construction path LoadEngine uses to restore object identity from
// a version-2 snapshot.
func newEngineWithIdentity(d *dict.Dictionary, coll *Collection, m Method, opts Options, ext []ObjectID, next ObjectID) (*Engine, error) {
	ix, err := NewIndex(m, coll, opts)
	if err != nil {
		return nil, err
	}
	var router *route.Router
	if ri, ok := ix.(*route.Index); ok {
		router = ri.Router()
	}
	build := func(ctx context.Context, c *model.Collection) (maint.Index, error) {
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
			// Carry the learned cost model across the compaction
			// rebuild. The new index has not been published yet — the
			// store swaps it in only after this hook returns — so the
			// mutation happens strictly before any reader can see it.
			ri.AdoptRouter(router)
		}
		return nix, nil
	}
	var store *maint.Store
	if ext != nil {
		store = maint.NewStoreWithIdentity(coll, ix, build, ext, next)
	} else {
		store = maint.NewStore(coll, ix, build)
	}
	return &Engine{
		method: m,
		opts:   opts,
		router: router,
		dict:   d,
		store:  store,
	}, nil
}

// snapshot returns the current immutable read generation. All query
// paths go through it; none of them touch engine fields afterwards
// except the dictionary (under dmu).
func (e *Engine) snapshot() *maint.Generation { return e.store.Snapshot() }

// lookupLocked resolves one term. Callers must hold e.dmu (read or
// write).
//
// irlint:locked dmu
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
//
// irlint:locked dmu
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

// Epoch returns the current generation's epoch. It advances on every
// published mutation (insert, delete, compaction) and on nothing else, so
// owners managing many engines — the tenant registry's evict-to-disk
// path — can cheaply detect whether an engine changed since a snapshot
// was last saved.
func (e *Engine) Epoch() uint64 { return e.snapshot().Epoch() }

// Index exposes the current generation's main index for advanced use.
// It covers the compacted prefix only — objects inserted since the last
// compaction (memtable) and pending deletions (tombstones) are not
// reflected; the engine's own search methods always see both. The
// returned index is immutable and safe for concurrent reads.
func (e *Engine) Index() Index { return e.snapshot().Base() }

// Len returns the number of live (non-tombstoned) objects.
func (e *Engine) Len() int { return e.snapshot().Len() }

// SizeBytes estimates the engine's resident size: main index, memtable,
// tombstones and the id-translation table.
func (e *Engine) SizeBytes() int64 { return e.snapshot().SizeBytes() }

// Compact merges the memtable into the object store, physically drops
// tombstoned objects, rebuilds the index off the read path and
// atomically swaps in the new generation; see maint.Store.Compact.
// Queries keep running against the old generation throughout. It returns
// ErrCompactionRunning if a compaction is already in flight.
func (e *Engine) Compact(ctx context.Context) (CompactionStats, error) {
	return e.store.Compact(ctx)
}

// CompactStats reports the engine's generational state and compaction
// history.
func (e *Engine) CompactStats() CompactionStats { return e.store.Stats() }

// SetCompactionPolicy installs (or, with the zero value, disables)
// automatic background compaction, triggered after Insert/Delete when
// the memtable or tombstone thresholds are crossed.
func (e *Engine) SetCompactionPolicy(p CompactionPolicy) { e.store.SetPolicy(p) }

// Search runs a time-travel IR query: objects overlapping [start, end]
// whose description contains every term. Unknown terms make the result
// empty (the conjunction cannot be satisfied). Results are in ascending
// id order.
func (e *Engine) Search(start, end Timestamp, terms ...string) []ObjectID {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchCtx
	ids, _ := e.SearchCtx(context.Background(), start, end, terms...)
	return ids
}

// finishIDs orders the internal result ids and translates them to
// external ids, under one sort span.
func finishIDs(g *maint.Generation, ids []model.ObjectID, tr *obs.Trace) []ObjectID {
	defer tr.StartStage(obs.StageSort).End()
	SortIDs(ids)
	return g.External(ids)
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
	g := e.snapshot()
	iv := model.Canon(start, end)
	var out []ObjectID
	for _, el := range model.NormalizeElems(elems) {
		out = append(out, g.Query(Query{Interval: iv, Elems: []ElemID{el}})...)
	}
	SortIDs(out)
	return g.External(model.DedupIDs(out))
}

// Object returns the lifespan and terms of an object.
func (e *Engine) Object(id ObjectID) (Interval, []string, error) {
	g := e.snapshot()
	o, ok := g.Lookup(id)
	if !ok {
		return Interval{}, nil, fmt.Errorf("temporalir: unknown object %d", id)
	}
	e.dmu.RLock()
	defer e.dmu.RUnlock()
	terms := make([]string, len(o.Elems))
	for i, el := range o.Elems {
		terms[i] = e.dict.Term(el)
	}
	return o.Interval, terms, nil
}

// Insert adds a new object to the store's memtable, returning its id.
// The id is stable: it survives compaction even though the underlying
// index is rebuilt with dense internal ids.
func (e *Engine) Insert(start, end Timestamp, terms ...string) ObjectID {
	iv := NewInterval(start, end) // validate before interning any terms
	e.dmu.Lock()
	elems := e.dict.AddObject(terms)
	ds := e.dict.Len()
	e.dmu.Unlock()
	return e.store.Append(iv, elems, ds)
}

// Delete tombstones an object by id; the next compaction physically
// removes it. Deleting an unknown (or already compacted-away) id is an
// error; deleting an already-tombstoned id is a no-op.
func (e *Engine) Delete(id ObjectID) error {
	g := e.snapshot()
	if _, ok := g.Internal(id); !ok {
		return fmt.Errorf("temporalir: unknown object %d", id)
	}
	e.store.Delete(id)
	return nil
}

// ScoredResult is one ranked hit of SearchTopK.
type ScoredResult struct {
	ID    ObjectID
	Score float64
}

// SearchTopK runs a relevance-ranked time-travel query: among the objects
// matching the containment query, return the k most relevant, scored by
// element rarity (IDF) blended with temporal overlap — the ranked-search
// extension the paper leaves as future work. IDF weights are those of
// the generation the query runs against: every stored object counts,
// inserted a moment ago or tombstoned but not yet compacted away.
func (e *Engine) SearchTopK(start, end Timestamp, k int, terms ...string) []ScoredResult {
	// irlint:ctx-root deliberately ctx-less convenience surface; callers who need deadlines use SearchTopKCtx
	res, _ := e.SearchTopKCtx(context.Background(), start, end, k, terms...)
	return res
}

// rankTopK scores and selects under a rank span. The span envelopes the
// ranked path's inner containment query, so it overlaps the
// postings/intersect/filter spans that query records.
func rankTopK(g *maint.Generation, q Query, k int, tr *obs.Trace) []rank.Result {
	defer tr.StartStage(obs.StageRank).End()
	return rank.TopKQuery(g, g.Coll(), queryScorer([]*maint.Generation{g}, q.Elems), q, k)
}

// queryScorer builds one ranked query's scorer from the statistics of
// the generations it runs against (one, or one per shard): populations
// and per-element document frequencies summed, so every shard scores
// with the weights a single engine over the whole corpus would use.
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

// RefreshScorer does nothing: ranked search reads always-current
// statistics, so there is no scorer to refresh.
//
// Deprecated: kept only because the frozen benchmark still calls it.
func (e *Engine) RefreshScorer() {}

// TimelineBucket is one row of Timeline's temporal histogram.
type TimelineBucket struct {
	Start Timestamp
	End   Timestamp
	Count int   // matching objects alive in this bucket
	Mass  int64 // matched lifespan time units falling in this bucket
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

// aggregateTimeline runs the histogram aggregation under an agg span.
// Like the rank span, it envelopes the aggregation's inner index work.
func aggregateTimeline(g *maint.Generation, q Query, buckets int, tr *obs.Trace) []TimelineBucket {
	defer tr.StartStage(obs.StageAgg).End()
	out := make([]TimelineBucket, 0, buckets)
	for _, b := range aggregate.Histogram(g, g.Coll(), q, buckets) {
		out = append(out, TimelineBucket{Start: b.Span.Start, End: b.Span.End, Count: b.Count, Mass: b.Mass})
	}
	return out
}
