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
	if p.MaxMemObjects > 0 && g.MemLen() >= p.MaxMemObjects {
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

// Store owns one store's generational state: a mutable backing array
// of objects plus its published immutable Generation, which lives in
// its set's view. Writers (Append, Delete, compaction's swap phase)
// serialize on mu; readers only load the set's atomic view and never
// block on mu.
//
// The backing slices are shared with published generations as prefix
// views: writers only ever append past the published length (or replace
// the whole slice under mu during compaction), so snapshot readers never
// observe a mutation.
type Store struct {
	mu sync.Mutex

	// set is the set the store belongs to and idx its place in the
	// set's view; both are immutable.
	set *Set
	idx int

	// build rebuilds the configured index method during compaction.
	build BuildFunc

	// compacting is the single-flight latch for compaction; it is CASed
	// outside mu so manual Compact never blocks behind writers.
	compacting atomic.Bool

	// objects is the mutable backing array; published generations hold
	// prefix views of it. Guarded by mu.
	objects []model.Object
	// ext is the internal→external id table, parallel to objects.
	// Guarded by mu.
	ext []model.ObjectID
	// compactLen is the length of the compacted prefix covered by the
	// main index; objects beyond it form the memtable. Guarded by mu.
	compactLen int
	// memBytes is the running size estimate of the memtable tail.
	// Guarded by mu.
	memBytes int64
	// policy is the auto-compaction policy. Guarded by mu.
	policy Policy
	// compactions counts completed compactions. Guarded by mu.
	compactions uint64
	// last records the most recent compaction outcome. Guarded by mu.
	last lastCompaction
	// totalDuration accumulates wall time across all compactions.
	// Guarded by mu.
	totalDuration time.Duration
	// totalDropped / totalMerged accumulate objects physically dropped
	// and memtable objects folded in across all compactions.
	// Guarded by mu.
	totalDropped uint64
	totalMerged  uint64 // guarded by mu
	// reclaimedBytes accumulates the estimated bytes freed by dropping
	// tombstoned objects (object payloads plus tombstone entries).
	// Guarded by mu.
	reclaimedBytes int64
}

// newStore wraps part p as store idx of set t and publishes its first
// generation. Draws from the set's id sequence happen under mu, so the
// store's ext table stays strictly ascending.
func newStore(t *Set, idx int, p Part) *Store {
	n := len(p.Coll.Objects)
	if len(p.Ext) != n {
		panic("maint: identity table length mismatch") // construction-time programming error
	}
	for i := 1; i < n; i++ {
		if p.Ext[i] <= p.Ext[i-1] {
			panic("maint: identity table not strictly ascending") // construction-time programming error
		}
	}
	if n > 0 && p.Ext[n-1] >= t.NextID() {
		panic("maint: next external id not past the identity table") // construction-time programming error
	}
	s := &Store{
		set:        t,
		idx:        idx,
		build:      p.Build,
		objects:    p.Coll.Objects,
		ext:        p.Ext,
		compactLen: n,
	}
	base := newCompacted(p.Base, p.Coll.Objects)
	t.publish(idx, &Generation{
		epoch:     1,
		coll:      model.Collection{Objects: p.Coll.Objects[:n:n], DictSize: p.Coll.DictSize},
		compacted: base,
		ext:       p.Ext[:n:n],
		extent:    base.baseExtent,
	})
	return s
}

// snapshot returns the store's current immutable read generation: its
// entry in the set's view.
func (s *Store) snapshot() *Generation { return s.set.View()[s.idx] }

// Append inserts one object into the memtable and publishes a new
// generation. It returns the stable external id assigned to the object.
// dictSize is the caller's current dictionary size, folded into the
// published collection so term ids stay in range.
func (s *Store) Append(iv model.Interval, elems []model.ElemID, dictSize int) model.ObjectID {
	s.mu.Lock()
	internal := model.ObjectID(len(s.objects))
	extID := model.ObjectID(s.set.next.Add(1) - 1)
	o := model.Object{ID: internal, Interval: iv, Elems: elems}
	s.objects = append(s.objects, o)
	s.ext = append(s.ext, extID)
	s.memBytes += objectBytes(&o)

	cur := s.snapshot()
	g := cur.next()
	n := len(s.objects)
	ds := cur.coll.DictSize
	if dictSize > ds {
		ds = dictSize
	}
	g.coll = model.Collection{Objects: s.objects[:n:n], DictSize: ds}
	g.ext = s.ext[:n:n]
	g.memBytes = s.memBytes
	g.extent = g.extent.grow(iv)
	s.set.publish(s.idx, g)
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
	cur := s.snapshot()
	id, found := cur.Internal(ext)
	if !found || cur.dead.Has(id) {
		return false, false
	}
	g := cur.next()
	g.dead = cur.dead.withAll(id)
	s.set.publish(s.idx, g)
	return true, s.policy.enabled() && s.policy.triggered(g)
}

// SetPolicy installs (or, with the zero Policy, disables) automatic
// background compaction.
func (s *Store) SetPolicy(p Policy) {
	s.mu.Lock()
	s.policy = p
	g := s.snapshot()
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
		// Background compaction outlives the Append that triggered it;
		// the cancelable path is the foreground Compact(ctx).
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
	g := s.snapshot()
	st := CompactionStats{
		Epoch:        g.epoch,
		Compactions:  s.compactions,
		InProgress:   s.compacting.Load(),
		BaseObjects:  g.compactLen,
		MemObjects:   g.MemLen(),
		MemBytes:     g.memBytes,
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
