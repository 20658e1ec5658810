package maint

import (
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
)

// tombstones is an immutable set of deleted internal ids. Mutation is
// copy-on-write: withAll returns a fresh set, so generations already
// published keep their view. The set is consumed (reset to empty) by
// compaction, which physically drops the tombstoned objects.
type tombstones struct {
	ids map[model.ObjectID]bool
}

// Has reports whether the internal id is tombstoned.
func (t tombstones) Has(id model.ObjectID) bool { return t.ids[id] }

// Len returns the number of tombstoned ids.
func (t tombstones) Len() int { return len(t.ids) }

// withAll returns a copy of the set with the given ids added.
func (t tombstones) withAll(ids ...model.ObjectID) tombstones {
	m := make(map[model.ObjectID]bool, len(t.ids)+len(ids))
	for id := range t.ids {
		m[id] = true
	}
	for _, id := range ids {
		m[id] = true
	}
	return tombstones{ids: m}
}

// Generation is one immutable epoch of the store: everything a query
// needs, reachable from a single pointer. Reads acquire it with one
// atomic load and then touch no shared mutable state at all — writers
// publish new generations instead of mutating old ones.
//
// All ids inside a Generation are internal (dense positions in Coll);
// External/Internal translate to and from the stable ids the engine
// hands out. Query results are internal; callers translate at the edge.
type Generation struct {
	epoch uint64
	coll  *model.Collection
	*compacted
	mem  Memtable
	dead tombstones
	ext  []model.ObjectID
}

// compacted is what a generation knows about its compacted prefix: the
// main index over coll.Objects[:compactLen] and its size, computed once
// when that index is installed (store construction, compaction's
// off-lock phase). Immutable, and shared — one pointer — by every
// generation until the next compaction replaces it, which keeps
// SizeBytes independent of corpus size per call and adds nothing to
// what an insert copies.
type compacted struct {
	base       model.Index
	compactLen int
	baseBytes  int64 // base.SizeBytes()
}

// next returns a copy of g with the epoch advanced; the store mutates
// the copy's fields before publishing it.
func (g *Generation) next() *Generation {
	g2 := *g
	g2.epoch++
	return &g2
}

// Epoch returns the generation's monotonically increasing epoch number.
func (g *Generation) Epoch() uint64 { return g.epoch }

// Coll returns the full visible collection: base objects in positions
// [0, base-length), memtable objects after. Internal ids equal
// positions, so rank and aggregation code can index Objects directly.
// The collection is immutable; callers must not mutate it.
func (g *Generation) Coll() *model.Collection { return g.coll }

// Base returns the immutable main index covering the compacted prefix
// of Coll. It excludes memtable objects and ignores tombstones; use
// Query for the full filtered view.
func (g *Generation) Base() model.Index { return g.base }

// Len returns the number of live (non-tombstoned) objects.
func (g *Generation) Len() int { return len(g.coll.Objects) - g.dead.Len() }

// MemLen returns the number of objects in the memtable snapshot.
func (g *Generation) MemLen() int { return g.mem.Len() }

// TombstoneCount returns the number of pending logical deletions.
func (g *Generation) TombstoneCount() int { return g.dead.Len() }

// Tombstoned reports whether the internal id is logically deleted.
func (g *Generation) Tombstoned(id model.ObjectID) bool { return g.dead.Has(id) }

// SizeBytes estimates the generation's resident size: the main index,
// the memtable, the tombstone set and the id-translation table.
func (g *Generation) SizeBytes() int64 {
	return g.baseBytes + g.mem.SizeBytes() +
		int64(g.dead.Len())*tombstoneBytes + int64(len(g.ext))*4
}

// Query answers a time-travel IR query over the whole generation: the
// main index supplies base candidates, tombstoned ids are filtered out,
// and memtable matches are appended. Results are internal ids in
// unspecified order.
func (g *Generation) Query(q model.Query) []model.ObjectID {
	return g.finish(q, g.base.Query(q))
}

// finish applies tombstone filtering to the base candidates (in place)
// and merges in matching memtable objects.
func (g *Generation) finish(q model.Query, ids []model.ObjectID) []model.ObjectID {
	defer q.Trace.StartStage(obs.StageFilter).End()
	filtered := g.dead.Len() > 0
	if filtered {
		w := 0
		for _, id := range ids {
			if !g.dead.Has(id) {
				ids[w] = id
				w++
			}
		}
		ids = ids[:w]
	}
	for i := range g.mem.objs {
		o := &g.mem.objs[i]
		if filtered && g.dead.Has(o.ID) {
			continue
		}
		if q.Matches(o) {
			ids = append(ids, o.ID)
		}
	}
	return ids
}

// Internal maps a stable external id to the generation's internal id,
// by binary search over the strictly ascending translation table.
func (g *Generation) Internal(ext model.ObjectID) (model.ObjectID, bool) {
	i := sort.Search(len(g.ext), func(i int) bool { return g.ext[i] >= ext })
	if i == len(g.ext) || g.ext[i] != ext {
		return 0, false
	}
	return model.ObjectID(i), true
}

// ExternalID maps one internal id to its stable external id.
func (g *Generation) ExternalID(id model.ObjectID) model.ObjectID { return g.ext[id] }

// External maps a slice of internal ids to external ids in place and
// returns it. The translation is monotonic, so an ascending input stays
// ascending.
func (g *Generation) External(ids []model.ObjectID) []model.ObjectID {
	for i, id := range ids {
		ids[i] = g.ext[id]
	}
	return ids
}

// Lookup resolves a stable external id to its live object record, or
// reports false if the id is unknown or tombstoned. The returned pointer
// aliases the generation's immutable storage; callers must not mutate it.
func (g *Generation) Lookup(ext model.ObjectID) (*model.Object, bool) {
	id, ok := g.Internal(ext)
	if !ok || g.dead.Has(id) {
		return nil, false
	}
	return &g.coll.Objects[id], true
}
