// Package maint implements the generational write path that turns the
// build-once indices of the paper into a long-running, continuously
// updatable store — the head/block split of log-structured systems
// (LSM memtables, Pyroscope's in-memory head vs. compacted blocks)
// applied to temporal IR:
//
//   - Writes land in a small mutable memtable — a brute-force sidecar
//     that is O(1) to append to — never in the main index.
//   - Reads run against an immutable Generation (main index + memtable
//     snapshot + tombstone set) obtained from a single atomic pointer,
//     so queries never wait on writers or on compaction.
//   - A background compactor merges the memtable into the object store,
//     physically drops tombstoned objects, rebuilds the configured index
//     method off the read path, and atomically swaps in the new
//     generation.
//
// Object identity: the Store hands out stable external ids that survive
// compaction. Internally every Generation uses dense position ids (the
// invariant all eight index methods rely on); a per-generation
// translation table maps between the two.
package maint

import (
	"context"
	"errors"

	"repro/internal/model"
)

// BuildFunc rebuilds the configured index method over a compacted
// collection. It runs off the read path (no locks held) and must not
// retain or mutate the collection beyond what index construction needs.
// The context is the compaction's: implementations should return
// ctx.Err() instead of starting an expensive build once it is done, so
// a canceled foreground Compact stops before the rebuild rather than
// after it. The store only ever calls the built index's Query, Len and
// SizeBytes: main indices are immutable here, and updates flow through
// the memtable and compaction.
type BuildFunc func(ctx context.Context, c *model.Collection) (model.Index, error)

// ErrCompactionRunning is returned by Compact when another compaction
// (manual or policy-triggered) is already in flight.
var ErrCompactionRunning = errors.New("maint: compaction already in progress")

// objectBytes estimates the resident size of one object record: the
// fixed struct (id + interval + slice header) plus its element ids.
func objectBytes(o *model.Object) int64 {
	return 48 + 4*int64(len(o.Elems))
}

// tombstoneBytes approximates the per-entry footprint of the tombstone
// set (map bucket share + key + value).
const tombstoneBytes = 16
