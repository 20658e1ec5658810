// Package domain implements the monotone discretization of a raw time
// domain onto the [0, 2^m - 1] grid used by HINT (Section 2.3 of the
// paper). Discretized values route intervals to hierarchy partitions;
// original timestamps are kept alongside so that all residual comparisons
// stay exact.
package domain

import (
	"fmt"
	"math"
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

	// last is Max − Min, the last offset. The span's length in points,
	// last+1, does not fit a uint64 when the domain is the whole int64
	// range.
	last uint64
}

// New builds a domain for raw range [min, max] with an m-bit grid.
// It panics on invalid arguments; use the error-returning Make in contexts
// where inputs are untrusted.
func New(min, max model.Timestamp, m int) Domain {
	d, err := Make(min, max, m)
	if err != nil {
		// documented constructor precondition; Make reports errors instead
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
	return Domain{Min: min, Max: max, M: m, last: uint64(max - min)}, nil
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
	// floor(off * 2^M / (last+1)) in 128-bit arithmetic: off can
	// approach 2^64 for the widest domains, so the multiplication must
	// not wrap. off <= last guarantees the quotient fits in 32 bits. A
	// span of 2^64 points divides by shifting: the quotient is the high
	// word.
	off := uint64(t - d.Min)
	hi, lo := bits.Mul64(off, uint64(d.Cells()))
	q := hi
	if d.last != math.MaxUint64 {
		q, _ = bits.Div64(hi, lo, d.last+1)
	}
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

// Span returns the raw range a collection's indices build over: its
// objects' span, or [0, 0] when it holds none.
func Span(c *model.Collection) model.Interval {
	if span, ok := c.Span(); ok {
		return span
	}
	return model.NewInterval(0, 0)
}

// Fit returns the domain over span on the finest grid of at most m bits
// (and MaxBits) whose cells are no narrower than one time point.
func Fit(span model.Interval, m int) Domain {
	m = min(m, MaxBits)
	last := uint64(span.End - span.Start)
	for m > 1 && uint64(1)<<uint(m)-1 > last {
		m--
	}
	d, _ := Make(span.Start, span.End, m)
	return d
}

// Slots cuts a span into n contiguous slots of ⌈points/n⌉ points each
// (trailing slots may be short or empty): tIF+Slicing's time slices and
// the time-range shard map. The zero value is not usable; construct
// with NewSlots.
type Slots struct {
	lo    model.Timestamp
	n     int
	width uint64
}

// NewSlots lays n >= 1 slots over span.
func NewSlots(span model.Interval, n int) Slots {
	// ⌈(last+1)/n⌉ = ⌊last/n⌋+1, which overflows only for one slot over
	// 2^64 points; saturating it keeps every offset in slot 0.
	width := uint64(span.End-span.Start)/uint64(n) + 1
	if width == 0 {
		width = math.MaxUint64
	}
	return Slots{lo: span.Start, n: n, width: width}
}

// Of returns t's slot, clamping timestamps outside the span to the edge
// slots, so late-arriving data still routes.
func (s Slots) Of(t model.Timestamp) int {
	if t <= s.lo {
		return 0
	}
	return int(min(uint64(t-s.lo)/s.width, uint64(s.n-1)))
}
