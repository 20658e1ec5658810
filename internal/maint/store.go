package maint

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Policy configures automatic background compaction. The zero value
// disables it; a policy triggers when either threshold is crossed.
type Policy struct {
	// MaxMemObjects triggers compaction once the memtable holds at least
	// this many objects. Zero disables the threshold.
	MaxMemObjects int
	// MaxDeadRatio triggers compaction once tombstones exceed this
	// fraction of all stored objects. Zero disables the threshold.
	MaxDeadRatio float64
}

func (p Policy) enabled() bool { return p.MaxMemObjects > 0 || p.MaxDeadRatio > 0 }

func (p Policy) triggered(g *Generation) bool {
	if p.MaxMemObjects > 0 && g.mem.Len() >= p.MaxMemObjects {
		return true
	}
	if p.MaxDeadRatio > 0 && len(g.coll.Objects) > 0 {
		if float64(g.dead.Len())/float64(len(g.coll.Objects)) >= p.MaxDeadRatio {
			return true
		}
	}
	return false
}

// lastCompaction records the outcome of the most recent compaction,
// including the per-phase breakdown (off-lock survivor copy, off-lock
// index rebuild, locked swap).
type lastCompaction struct {
	duration time.Duration
	copyDur  time.Duration
	buildDur time.Duration
	swapDur  time.Duration
	dropped  int
	merged   int
}

// Store owns the generational state: a mutable backing array of objects
// plus the published immutable Generation snapshot. Writers (Append,
// Delete, compaction's swap phase) serialize on mu; readers only load
// the atomic generation pointer and never block on mu.
//
// The backing slices are shared with published generations as prefix
// views: writers only ever append past the published length (or replace
// the whole slice under mu during compaction), so snapshot readers never
// observe a mutation.
type Store struct {
	mu sync.Mutex

	// gen is the published read snapshot. All loads and stores go through
	// Snapshot/publish so the access pattern stays auditable.
	// irlint:snapshot-via Snapshot,publish
	gen atomic.Pointer[Generation]

	// build rebuilds the configured index method during compaction.
	build BuildFunc

	// alloc, when non-nil, is the shared external-id sequence of a
	// sharded engine; Append draws from it instead of nextExt. The
	// allocator is internally atomic, but draws happen under mu so the
	// per-store ext table stays strictly ascending.
	alloc *IDAllocator

	// compacting is the single-flight latch for compaction; it is CASed
	// outside mu so manual Compact never blocks behind writers.
	compacting atomic.Bool

	// objects is the mutable backing array; published generations hold
	// prefix views of it. irlint:guarded-by mu
	objects []model.Object
	// ext is the internal→external id table, parallel to objects.
	// irlint:guarded-by mu
	ext []model.ObjectID
	// compactLen is the length of the compacted prefix covered by the
	// main index; objects beyond it form the memtable. irlint:guarded-by mu
	compactLen int
	// memBytes is the running size estimate of the memtable tail.
	// irlint:guarded-by mu
	memBytes int64
	// nextExt is the next external id to hand out. irlint:guarded-by mu
	nextExt model.ObjectID
	// policy is the auto-compaction policy. irlint:guarded-by mu
	policy Policy
	// compactions counts completed compactions. irlint:guarded-by mu
	compactions uint64
	// last records the most recent compaction outcome. irlint:guarded-by mu
	last lastCompaction
	// totalDuration accumulates wall time across all compactions.
	// irlint:guarded-by mu
	totalDuration time.Duration
	// totalDropped / totalMerged accumulate objects physically dropped
	// and memtable objects folded in across all compactions.
	// irlint:guarded-by mu
	totalDropped uint64
	totalMerged  uint64 // irlint:guarded-by mu
	// reclaimedBytes accumulates the estimated bytes freed by dropping
	// tombstoned objects (object payloads plus tombstone entries).
	// irlint:guarded-by mu
	reclaimedBytes int64
}

// IDAllocator hands out external object ids from a single monotonic
// sequence. Stores sharing one allocator (the shards of a sharded
// engine) assign globally unique, insertion-ordered ids, so a sharded
// corpus carries exactly the ids a single store over the same inserts
// would have handed out — the property the shard-vs-oracle differential
// relies on.
type IDAllocator struct {
	next atomic.Uint64
}

// NewIDAllocator returns an allocator whose next id is next.
func NewIDAllocator(next model.ObjectID) *IDAllocator {
	a := &IDAllocator{}
	a.next.Store(uint64(next))
	return a
}

// take returns the next id and advances the sequence.
func (a *IDAllocator) take() model.ObjectID {
	return model.ObjectID(a.next.Add(1) - 1)
}

// Next returns the id the next take would hand out.
func (a *IDAllocator) Next() model.ObjectID {
	return model.ObjectID(a.next.Load())
}

// NewStore wraps an already-built base index and its collection in a
// generational store. The store takes ownership of coll's object slice;
// external ids start out identical to the dense internal ids.
func NewStore(coll *model.Collection, base Index, build BuildFunc) *Store {
	n := len(coll.Objects)
	ext := make([]model.ObjectID, n)
	for i := range ext {
		ext[i] = model.ObjectID(i)
	}
	return NewStoreWithIdentity(coll, base, build, ext, model.ObjectID(n))
}

// NewStoreWithIdentity is NewStore with an explicit external-id table
// and next-id counter — the load half of identity-preserving
// persistence. ext must be strictly ascending, parallel to
// coll.Objects, with every entry below next; the store takes ownership
// of both slices. A store rebuilt this way hands out exactly the ids
// the saved store would have, so an engine that is saved, dropped and
// reloaded is indistinguishable to clients holding object ids.
func NewStoreWithIdentity(coll *model.Collection, base Index, build BuildFunc, ext []model.ObjectID, next model.ObjectID) *Store {
	return newStore(coll, base, build, ext, next, nil)
}

// NewStoreShared is NewStoreWithIdentity for one shard of a sharded
// engine: external ids come from the shared allocator instead of the
// store's own counter, so sibling stores never collide. ext must be a
// strictly ascending subsequence of the ids the allocator has already
// handed out.
func NewStoreShared(coll *model.Collection, base Index, build BuildFunc, ext []model.ObjectID, alloc *IDAllocator) *Store {
	if alloc == nil {
		panic("maint: NewStoreShared needs an allocator") // lint:panic-ok construction-time programming error
	}
	return newStore(coll, base, build, ext, alloc.Next(), alloc)
}

func newStore(coll *model.Collection, base Index, build BuildFunc, ext []model.ObjectID, next model.ObjectID, alloc *IDAllocator) *Store {
	n := len(coll.Objects)
	if len(ext) != n {
		panic("maint: identity table length mismatch") // lint:panic-ok construction-time programming error
	}
	for i := 1; i < n; i++ {
		if ext[i] <= ext[i-1] {
			panic("maint: identity table not strictly ascending") // lint:panic-ok construction-time programming error
		}
	}
	if n > 0 && ext[n-1] >= next {
		panic("maint: next external id not past the identity table") // lint:panic-ok construction-time programming error
	}
	s := &Store{
		build:      build,
		alloc:      alloc,
		objects:    coll.Objects,
		ext:        ext,
		compactLen: n,
		nextExt:    next,
	}
	s.publish(&Generation{
		epoch:     1,
		coll:      &model.Collection{Objects: coll.Objects[:n:n], DictSize: coll.DictSize},
		compacted: &compacted{base: base, compactLen: n, baseBytes: base.SizeBytes(), baseDF: coll.ElemFreqs()},
		ext:       ext[:n:n],
		nextExt:   next,
	})
	return s
}

// Snapshot returns the current immutable read generation. This is the
// only sanctioned read access to the atomic generation pointer.
func (s *Store) Snapshot() *Generation { return s.gen.Load() }

// publish validates (under -tags invariants) and installs a new
// generation. This is the only sanctioned write access to the pointer.
func (s *Store) publish(g *Generation) {
	checkGeneration(g)
	s.gen.Store(g)
}

// Append inserts one object into the memtable and publishes a new
// generation. It returns the stable external id assigned to the object.
// dictSize is the caller's current dictionary size, folded into the
// published collection so term ids stay in range.
func (s *Store) Append(iv model.Interval, elems []model.ElemID, dictSize int) model.ObjectID {
	s.mu.Lock()
	internal := model.ObjectID(len(s.objects))
	var extID model.ObjectID
	if s.alloc != nil {
		extID = s.alloc.take()
		s.nextExt = extID + 1
	} else {
		extID = s.nextExt
		s.nextExt++
	}
	o := model.Object{ID: internal, Interval: iv, Elems: elems}
	s.objects = append(s.objects, o)
	s.ext = append(s.ext, extID)
	s.memBytes += objectBytes(&o)

	cur := s.Snapshot()
	g := cur.next()
	n := len(s.objects)
	ds := cur.coll.DictSize
	if dictSize > ds {
		ds = dictSize
	}
	g.coll = &model.Collection{Objects: s.objects[:n:n], DictSize: ds}
	g.ext = s.ext[:n:n]
	g.nextExt = s.nextExt
	g.mem = Memtable{objs: s.objects[s.compactLen:n:n], bytes: s.memBytes}
	s.publish(g)
	auto := s.policy.enabled() && s.policy.triggered(g)
	s.mu.Unlock()

	if auto {
		s.tryBackgroundCompact()
	}
	return extID
}

// Delete tombstones the object with the given stable external id. It
// reports false if the id is unknown or already deleted.
func (s *Store) Delete(ext model.ObjectID) bool {
	ok, auto := s.deleteOne(ext)
	if auto {
		s.tryBackgroundCompact()
	}
	return ok
}

// deleteOne publishes the tombstone under the writer lock and reports
// whether the delete took effect and whether it tripped the policy.
func (s *Store) deleteOne(ext model.ObjectID) (ok, auto bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.Snapshot()
	id, found := cur.Internal(ext)
	if !found || cur.dead.Has(id) {
		return false, false
	}
	g := cur.next()
	g.dead = cur.dead.withAll(id)
	s.publish(g)
	return true, s.policy.enabled() && s.policy.triggered(g)
}

// SetPolicy installs (or, with the zero Policy, disables) automatic
// background compaction.
func (s *Store) SetPolicy(p Policy) {
	s.mu.Lock()
	s.policy = p
	g := s.Snapshot()
	auto := p.enabled() && p.triggered(g)
	s.mu.Unlock()

	if auto {
		s.tryBackgroundCompact()
	}
}

// tryBackgroundCompact starts one background compaction if none is in
// flight. Errors are swallowed: a failed background pass leaves the old
// generation intact and a later trigger retries.
func (s *Store) tryBackgroundCompact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	// irlint:goroutine-exits single-flight: runCompact always returns (no unbounded waits) and the deferred CAS-reset reopens the gate; process exit is the only abandonment
	go func() {
		defer s.compacting.Store(false)
		// irlint:ctx-root background compaction outlives the Append that triggered it; the cancelable path is the foreground Compact(ctx)
		_ = s.runCompact(context.Background())
	}()
}

// CompactionStats describes the store's generational state and
// compaction history.
type CompactionStats struct {
	Epoch        uint64        `json:"epoch"`
	Compactions  uint64        `json:"compactions"`
	InProgress   bool          `json:"in_progress"`
	BaseObjects  int           `json:"base_objects"`
	MemObjects   int           `json:"memtable_objects"`
	MemBytes     int64         `json:"memtable_bytes"`
	Tombstones   int           `json:"tombstones"`
	DeadRatio    float64       `json:"dead_ratio"`
	LastDuration time.Duration `json:"last_duration_ns"`
	LastDropped  int           `json:"last_dropped"`
	LastMerged   int           `json:"last_merged"`
	// Per-phase breakdown of the most recent compaction.
	LastCopy  time.Duration `json:"last_copy_ns"`
	LastBuild time.Duration `json:"last_build_ns"`
	LastSwap  time.Duration `json:"last_swap_ns"`
	// Cumulative totals across all compactions (monotonic, suitable for
	// Prometheus counters).
	TotalDuration  time.Duration `json:"total_duration_ns"`
	TotalDropped   uint64        `json:"total_dropped"`
	TotalMerged    uint64        `json:"total_merged"`
	ReclaimedBytes int64         `json:"reclaimed_bytes"`
}

// Stats returns a consistent snapshot of the store's compaction state.
func (s *Store) Stats() CompactionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked(s.Snapshot())
}

// statsLocked assembles stats for the given generation.
// irlint:locked mu
func (s *Store) statsLocked(g *Generation) CompactionStats {
	st := CompactionStats{
		Epoch:        g.epoch,
		Compactions:  s.compactions,
		InProgress:   s.compacting.Load(),
		BaseObjects:  g.compactLen,
		MemObjects:   g.mem.Len(),
		MemBytes:     g.mem.SizeBytes(),
		Tombstones:   g.dead.Len(),
		LastDuration: s.last.duration,
		LastDropped:  s.last.dropped,
		LastMerged:   s.last.merged,
		LastCopy:     s.last.copyDur,
		LastBuild:    s.last.buildDur,
		LastSwap:     s.last.swapDur,

		TotalDuration:  s.totalDuration,
		TotalDropped:   s.totalDropped,
		TotalMerged:    s.totalMerged,
		ReclaimedBytes: s.reclaimedBytes,
	}
	if n := len(g.coll.Objects); n > 0 {
		st.DeadRatio = float64(g.dead.Len()) / float64(n)
	}
	return st
}
