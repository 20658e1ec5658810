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
	width int64 // per-shard start-time slot width (TimeRange), >= 1
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
	width := (int64(hi-lo) + int64(n)) / int64(n) // ceil((hi-lo+1)/n)
	if width < 1 {
		width = 1
	}
	return Map{kind: TimeRange, n: n, lo: lo, hi: hi, width: width}, nil
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

// Bounds returns the time-range domain, or (0, 0) for a hash map.
func (m Map) Bounds() (lo, hi model.Timestamp) { return m.lo, m.hi }

// Route returns the shard index for an object. Deterministic: the same
// (interval, elems) always routes to the same shard, so a rebuilt or
// reloaded corpus partitions identically.
func (m Map) Route(iv model.Interval, elems []model.ElemID) int {
	switch m.kind {
	case TimeRange:
		start := iv.Start
		if start < m.lo {
			start = m.lo
		}
		if start > m.hi {
			start = m.hi
		}
		idx := int(int64(start-m.lo) / m.width)
		if idx >= m.n {
			idx = m.n - 1
		}
		return idx
	default:
		return int(m.hash(iv, elems) % uint64(m.n))
	}
}

// RangeOf returns the start-time slot of shard i (TimeRange maps only;
// ok=false otherwise). The first and last shards additionally absorb
// out-of-bounds starts, and objects may END far past their slot — use
// observed extents, not slots, for query pruning.
func (m Map) RangeOf(i int) (model.Interval, bool) {
	if m.kind != TimeRange || i < 0 || i >= m.n {
		return model.Interval{}, false
	}
	lo := m.lo + model.Timestamp(int64(i)*m.width)
	hi := lo + model.Timestamp(m.width) - 1
	if i == m.n-1 || hi > m.hi {
		hi = m.hi
	}
	if lo > hi {
		lo = hi
	}
	return model.NewInterval(lo, hi), true
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
