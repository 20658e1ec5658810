package maint

import (
	"context"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Compact synchronously merges the memtable into the compacted store,
// physically drops tombstoned objects, rebuilds the main index off the
// read path, and atomically swaps in the new generation. Queries running
// concurrently keep using the old generation and never block.
//
// It returns ErrCompactionRunning if a compaction (manual or
// policy-triggered) is already in flight, and the build or context error
// if the rebuild fails — in which case the old generation stays
// published and the store is unchanged.
func (s *Store) Compact(ctx context.Context) (CompactionStats, error) {
	if !s.compacting.CompareAndSwap(false, true) {
		return s.Stats(), ErrCompactionRunning
	}
	err := func() error {
		// Release the latch before collecting the returned stats, so a
		// finished compaction reports InProgress == false.
		defer s.compacting.Store(false)
		return s.runCompact(ctx)
	}()
	return s.Stats(), err
}

// phaseTimings carries the per-phase measurements of one compaction
// from the off-lock phases into the locked swap, where they are folded
// into the store's stats.
type phaseTimings struct {
	copyDur   time.Duration
	buildDur  time.Duration
	reclaimed int64
}

// runCompact is the compaction body; the caller holds the compacting
// latch. Phase 1 (survivor copy + index rebuild) runs without any lock;
// phase 2 (state swap) briefly takes the writer mutex. When the context
// carries an obs.Trace, each phase records a span on it.
func (s *Store) runCompact(ctx context.Context) error {
	start := time.Now()
	tr := obs.TraceFromContext(ctx)
	g0 := s.Snapshot()
	if g0.dead.Len() == 0 && g0.mem.Len() == 0 {
		return nil // nothing to merge or drop
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 1 (off-lock): copy the survivors of the frozen snapshot g0
	// into a fresh dense collection and rebuild the main index over it.
	// Writers may keep appending and deleting concurrently; anything past
	// g0 is folded in during phase 2.
	var ph phaseTimings
	t0 := time.Now()
	survivors, ext, reclaimed := copySurvivors(g0, tr)
	ph.copyDur, ph.reclaimed = time.Since(t0), reclaimed

	newColl := &model.Collection{Objects: survivors, DictSize: g0.coll.DictSize}
	t1 := time.Now()
	base, err := s.buildBase(ctx, newColl, tr)
	ph.buildDur = time.Since(t1)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	s.swapCompacted(g0, newColl, base, ext, start, ph, tr)
	return nil
}

// copySurvivors is compaction phase 1a: the off-lock copy of g0's live
// objects into a fresh dense collection. The same pass estimates the
// bytes reclaimed by dropping the tombstoned objects.
func copySurvivors(g0 *Generation, tr *obs.Trace) (survivors []model.Object, ext []model.ObjectID, reclaimed int64) {
	defer tr.StartStage(obs.StageCompactCopy).End()
	n0 := len(g0.coll.Objects)
	survivors = make([]model.Object, 0, n0-g0.dead.Len())
	ext = make([]model.ObjectID, 0, n0-g0.dead.Len())
	for i := range g0.coll.Objects {
		id := model.ObjectID(i)
		if g0.dead.Has(id) {
			reclaimed += objectBytes(&g0.coll.Objects[i]) + tombstoneBytes
			continue
		}
		o := g0.coll.Objects[i]
		o.ID = model.ObjectID(len(survivors))
		survivors = append(survivors, o)
		ext = append(ext, g0.ext[i])
	}
	return survivors, ext, reclaimed
}

// buildBase is compaction phase 1b: the off-lock index rebuild. The
// rebuild is the expensive half of compaction, so cancellation is
// re-checked here — after the survivor copy — and the context is handed
// to the BuildFunc so cooperative builders can stop mid-build too. The
// new index is sized here, once, still off-lock.
func (s *Store) buildBase(ctx context.Context, c *model.Collection, tr *obs.Trace) (*compacted, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer tr.StartStage(obs.StageCompactBuild).End()
	base, err := s.build(ctx, c)
	if err != nil {
		return nil, err
	}
	return &compacted{base: base, compactLen: len(c.Objects), baseBytes: base.SizeBytes()}, nil
}

// swapCompacted is compaction phase 2: under the writer mutex, fold in
// everything that happened after the g0 snapshot (appends become the new
// memtable, fresh tombstones are re-keyed onto the new dense ids), then
// install the new backing state and publish the new generation.
func (s *Store) swapCompacted(g0 *Generation, newColl *model.Collection, base *compacted, ext []model.ObjectID, start time.Time, ph phaseTimings, tr *obs.Trace) {
	defer tr.StartStage(obs.StageCompactSwap).End()
	swapStart := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.Snapshot()

	base0 := base.compactLen

	// Objects appended since the snapshot form the new memtable.
	tail := s.objects[len(g0.coll.Objects):]
	tailExt := s.ext[len(g0.coll.Objects):]
	var memBytes int64
	for i := range tail {
		o := tail[i]
		o.ID = model.ObjectID(len(newColl.Objects))
		newColl.Objects = append(newColl.Objects, o)
		ext = append(ext, tailExt[i])
		memBytes += objectBytes(&o)
	}
	newColl.DictSize = cur.coll.DictSize

	// Tombstones added since the snapshot survive compaction, re-keyed
	// from old internal ids to the new dense positions via external ids.
	dead := tombstones{}
	var carried []model.ObjectID
	for old := range cur.dead.ids { // lint:map-order-ok sink is a set (tombstone map); order-insensitive
		if g0.dead.Has(old) {
			continue // consumed: physically dropped in phase 1
		}
		e := cur.ext[old]
		if id, ok := internalOf(ext, e); ok {
			carried = append(carried, id)
		}
	}
	if len(carried) > 0 {
		dead = dead.withAll(carried...)
	}

	n := len(newColl.Objects)
	s.objects = newColl.Objects
	s.ext = ext
	s.compactLen = base0
	s.memBytes = memBytes
	s.compactions++
	s.last = lastCompaction{
		duration: time.Since(start),
		copyDur:  ph.copyDur,
		buildDur: ph.buildDur,
		swapDur:  time.Since(swapStart),
		dropped:  g0.dead.Len(),
		merged:   g0.mem.Len(),
	}
	s.totalDuration += s.last.duration
	s.totalDropped += uint64(s.last.dropped)
	s.totalMerged += uint64(s.last.merged)
	s.reclaimedBytes += ph.reclaimed
	s.publish(&Generation{
		epoch:     cur.epoch + 1,
		coll:      &model.Collection{Objects: newColl.Objects[:n:n], DictSize: newColl.DictSize},
		compacted: base,
		mem:       Memtable{objs: newColl.Objects[base0:n:n], bytes: memBytes},
		dead:      dead,
		ext:       ext[:n:n],
	})
}

// internalOf binary-searches a strictly ascending external-id table for
// e and returns its dense position.
func internalOf(ext []model.ObjectID, e model.ObjectID) (model.ObjectID, bool) {
	lo, hi := 0, len(ext)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ext[mid] < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ext) || ext[lo] != e {
		return 0, false
	}
	return model.ObjectID(lo), true
}
