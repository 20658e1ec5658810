// Package shard holds the pure partitioning and merging machinery of
// the sharded engine: the shard map that assigns objects to shards
// (time-range by default, content hash for unbounded streams), the
// k-way result mergers the scatter-gather coordinator uses, and the
// partial-result report type. Everything here is deterministic and
// side-effect free — the coordinator (temporalir.Engine) owns the
// stores, pools and deadlines.
package shard

import (
	"fmt"

	"repro/internal/domain"
	"repro/internal/model"
)

// Kind selects how the map assigns objects to shards.
type Kind uint8

const (
	// TimeRange partitions by interval start time: the bounded time
	// domain is cut into N contiguous slots, so each shard's domain
	// discretization stays tight for its range and extent-based query
	// pruning can skip shards a query interval cannot reach.
	TimeRange Kind = iota
	// Hash partitions by a content hash of the object (interval plus
	// elements) — the fallback for unbounded streams where no time
	// bounds are known up front. Load balances; no range pruning from
	// the map itself (the coordinator's observed extents still prune).
	Hash
)

// String returns the stable lowercase kind label used in stats.
func (k Kind) String() string {
	switch k {
	case TimeRange:
		return "time-range"
	case Hash:
		return "hash"
	default:
		return "unknown"
	}
}

// Map deterministically assigns objects to one of N shards. The zero
// value is not usable; construct with NewTimeRange or NewHash. A Map is
// immutable and safe for concurrent use.
type Map struct {
	kind  Kind
	n     int
	lo    model.Timestamp
	hi    model.Timestamp
	slots domain.Slots // per-shard start-time slots (TimeRange)
}

// NewTimeRange returns a map cutting the start-time domain [lo, hi]
// into n contiguous slots. Starts outside the bounds clamp to the edge
// shards, so the map stays total over late-arriving data.
func NewTimeRange(n int, lo, hi model.Timestamp) (Map, error) {
	if n < 1 {
		return Map{}, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if lo > hi {
		return Map{}, fmt.Errorf("shard: invalid time bounds [%d, %d]", lo, hi)
	}
	return Map{kind: TimeRange, n: n, lo: lo, hi: hi, slots: domain.NewSlots(model.NewInterval(lo, hi), n)}, nil
}

// NewHash returns a content-hash map over n shards.
func NewHash(n int) (Map, error) {
	if n < 1 {
		return Map{}, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	return Map{kind: Hash, n: n}, nil
}

// Kind returns the partitioning strategy.
func (m Map) Kind() Kind { return m.kind }

// N returns the shard count.
func (m Map) N() int { return m.n }

// Route returns the shard index for an object. Deterministic: the same
// (interval, elems) always routes to the same shard, so a rebuilt or
// reloaded corpus partitions identically.
func (m Map) Route(iv model.Interval, elems []model.ElemID) int {
	switch m.kind {
	case TimeRange:
		return m.slots.Of(min(iv.Start, m.hi))
	default:
		return int(m.hash(iv, elems) % uint64(m.n))
	}
}

// FNV-1a constants (hash/fnv's New64a allocates; inlining the mix keeps
// the insert path allocation-free).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash mixes the object's content — interval endpoints and element ids
// — through FNV-1a.
func (m Map) hash(iv model.Interval, elems []model.ElemID) uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix64(h, uint64(iv.Start))
	h = fnvMix64(h, uint64(iv.End))
	for _, e := range elems {
		h = fnvMix64(h, uint64(e))
	}
	return h
}

// fnvMix64 folds one 64-bit value into an FNV-1a state byte by byte.
func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
