// Package domain implements the monotone discretization of a raw time
// domain onto the [0, 2^m - 1] grid used by HINT (Section 2.3 of the
// paper). Discretized values route intervals to hierarchy partitions;
// original timestamps are kept alongside so that all residual comparisons
// stay exact.
package domain

import (
	"fmt"
	"math/bits"

	"repro/internal/model"
)

// MaxBits bounds the number of hierarchy levels. 30 keeps every shift in
// range for uint64 arithmetic with time domains up to 2^33 units.
const MaxBits = 30

// Domain maps raw timestamps in [Min, Max] onto [0, 2^m - 1].
type Domain struct {
	Min model.Timestamp
	Max model.Timestamp
	M   int // number of bits; the grid has 2^M cells

	span uint64 // Max - Min + 1
}

// New builds a domain for raw range [min, max] with an m-bit grid.
// It panics on invalid arguments; use the error-returning Make in contexts
// where inputs are untrusted.
func New(min, max model.Timestamp, m int) Domain {
	d, err := Make(min, max, m)
	if err != nil {
		// lint:panic-ok documented constructor precondition; Make reports errors instead
		panic(err)
	}
	return d
}

// Make is like New but reports invalid arguments as an error.
func Make(min, max model.Timestamp, m int) (Domain, error) {
	if min > max {
		return Domain{}, fmt.Errorf("domain: min %d > max %d", min, max)
	}
	if m < 0 || m > MaxBits {
		return Domain{}, fmt.Errorf("domain: m = %d out of [0, %d]", m, MaxBits)
	}
	return Domain{Min: min, Max: max, M: m, span: uint64(max-min) + 1}, nil
}

// Cells returns the number of grid cells, 2^M.
func (d Domain) Cells() uint32 { return uint32(1) << uint(d.M) }

// Disc maps a raw timestamp to its grid cell in [0, 2^M - 1]. Timestamps
// outside [Min, Max] are clamped; the mapping is monotone non-decreasing,
// which is what the pruning logic of HINT relies on.
func (d Domain) Disc(t model.Timestamp) uint32 {
	if t <= d.Min {
		return 0
	}
	if t >= d.Max {
		return d.Cells() - 1
	}
	// floor(off * 2^M / span) in 128-bit arithmetic: off can approach
	// 2^63 for epoch-nanosecond domains, so the multiplication must not
	// wrap. off < span guarantees the quotient fits in 32 bits.
	off := uint64(t - d.Min)
	hi, lo := bits.Mul64(off, uint64(d.Cells()))
	q, _ := bits.Div64(hi, lo, d.span)
	assertCell(d, uint32(q), "Disc")
	return uint32(q)
}

// DiscInterval discretizes both endpoints of an interval.
func (d Domain) DiscInterval(iv model.Interval) (lo, hi uint32) {
	return d.Disc(iv.Start), d.Disc(iv.End)
}

// Prefix returns the index of the level-l partition containing grid cell v,
// i.e. the l-bit prefix of the M-bit value v.
func (d Domain) Prefix(level int, v uint32) uint32 {
	assertLevel(d, level, "Prefix")
	assertCell(d, v, "Prefix")
	return v >> uint(d.M-level)
}

// PartitionExtent returns the grid-cell range [lo, hi] covered by partition
// j at the given level.
func (d Domain) PartitionExtent(level int, j uint32) (lo, hi uint32) {
	assertLevel(d, level, "PartitionExtent")
	assertPartition(d, level, j, "PartitionExtent")
	width := uint32(1) << uint(d.M-level)
	return j * width, j*width + width - 1
}
