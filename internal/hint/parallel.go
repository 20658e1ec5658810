package hint

import (
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/postings"
)

// HINT's partition decomposition is embarrassingly parallel: the relevant
// partitions of a range query are disjoint slices of read-only storage,
// and the comparison obligations of each depend only on its position in
// the bottom-up walk (computed serially, before any fan-out). This file
// fans the per-partition scans of query.go across an exec.Pool. Results
// stay duplicate-free because HINT's assignment reports every interval
// exactly once across the relevant partitions; only the output order
// changes, so callers needing a stable order must sort.

// RelevantPartition pairs one populated relevant partition with the
// comparison obligations Algorithm 2 derives for it.
type RelevantPartition struct {
	P  *Partition
	Ob Obligations
}

// Relevant appends the relevant partitions of q in bottom-up traversal
// order, each with its obligations — the serial prologue every parallel
// scan shares.
func (ix *Index) Relevant(q model.Interval, dst []RelevantPartition) []RelevantPartition {
	ix.VisitRelevant(q, func(p *Partition, ob Obligations) {
		dst = append(dst, RelevantPartition{P: p, Ob: ob})
	})
	return dst
}

// fanCutoff is the minimum number of relevant partitions worth fanning
// out; below it the chunk bookkeeping costs more than the scans.
const fanCutoff = 8

// fanMinPer is the smallest per-chunk partition count.
const fanMinPer = 2

// RangeQueryParallel answers the same queries as RangeQuery with the
// per-partition scans fanned across the pool. Each id appears exactly
// once; the order is nondeterministic under concurrency. A nil or
// single-worker pool (or a small partition count) falls back to the
// serial scan.
func (ix *Index) RangeQueryParallel(q model.Interval, pool *exec.Pool, dst []model.ObjectID) []model.ObjectID {
	return ix.RangeQueryFilteredParallel(q, nil, pool, dst)
}

// RangeQueryFilteredParallel is RangeQueryFilteredBitmap with the
// partition scans fanned across the pool; a nil bm filters nothing.
// Every chunk probes the same bm, which must not change until the call
// returns.
//
// irlint:cold opt-in parallel fan-out; per-chunk buffers are the cost of concurrency, not the serial query path
func (ix *Index) RangeQueryFilteredParallel(q model.Interval, bm *postings.Bitmap, pool *exec.Pool, dst []model.ObjectID) []model.ObjectID {
	report := func(rp RelevantPartition, dst []model.ObjectID) []model.ObjectID {
		if bm == nil {
			return reportPartition(rp.P, rp.Ob, q, dst)
		}
		return reportPartitionBitmap(rp.P, rp.Ob, q, bm, dst)
	}
	parts := ix.Relevant(q, nil)
	if pool == nil || pool.Workers() <= 1 || len(parts) < fanCutoff {
		for _, rp := range parts {
			dst = report(rp, dst)
		}
		return dst
	}
	partials := exec.MapChunks(pool, len(parts), fanMinPer, func(lo, hi int) []model.ObjectID {
		var buf []model.ObjectID
		for _, rp := range parts[lo:hi] {
			buf = report(rp, buf)
		}
		return buf
	})
	for _, b := range partials {
		dst = append(dst, b...)
	}
	return dst
}
