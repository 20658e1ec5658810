// Package aggregate implements temporal aggregation over time-travel IR
// results — the "statistical information over time" capability of the
// temporal keyword search line of work the paper surveys (Section 6.3,
// Gao et al.): instead of listing matching objects, report how many (and
// how much lifespan) fall into each bucket of a time partition.
package aggregate

import (
	"math"

	"repro/internal/model"
)

// Bucket is one row of a temporal histogram.
type Bucket struct {
	Span  model.Interval
	Count int   // matching objects whose lifespan overlaps the bucket
	Mass  int64 // total overlapped time units within the bucket
}

// Index is the candidate source (any index of the family).
type Index interface {
	Query(q model.Query) []model.ObjectID
}

// Layout returns the empty bucket partition Histogram fills in: n equal
// buckets over the query interval (the final bucket absorbs the
// division remainder; n shrinks to the interval's duration when it is
// shorter than n time points). The layout depends only on (q.Interval,
// n), which is what lets a sharded engine sum per-shard histograms
// bucket-by-bucket: every shard — and the merged result — shares this
// exact partition. Returns nil when n or the interval is degenerate.
func Layout(q model.Query, n int) []Bucket {
	if n <= 0 || !q.Interval.Valid() {
		return nil
	}
	// The interval's last offset, End−Start, fits a uint64 where its
	// length in points may not (2^64 for the whole int64 range).
	last := uint64(q.Interval.End - q.Interval.Start)
	if last < uint64(n-1) {
		n = int(last) + 1
	}
	width := bucketWidth(last, n)
	buckets := make([]Bucket, n)
	for i := range buckets {
		lo := q.Interval.Start + model.Timestamp(uint64(i)*width)
		hi := q.Interval.End
		if i < n-1 {
			hi = lo + model.Timestamp(width-1)
		}
		buckets[i].Span = model.NewInterval(lo, hi)
	}
	return buckets
}

// bucketWidth is ⌊(last+1)/n⌋, the width in points of every bucket but
// the final one, computed so that last+1 = 2^64 does not overflow. The
// one case whose width does not fit, a single bucket over 2^64 points,
// saturates: no bucket but the final one exists there.
func bucketWidth(last uint64, n int) uint64 {
	w := last/uint64(n) + (last%uint64(n)+1)/uint64(n)
	if w == 0 {
		return math.MaxUint64
	}
	return w
}

// Histogram partitions the query interval into n equal buckets and, for
// every object matching the time-travel IR query, accumulates per bucket
// the overlap count and the overlapped duration mass. The final bucket
// absorbs the division remainder.
func Histogram(ix Index, c *model.Collection, q model.Query, n int) []Bucket {
	buckets := Layout(q, n)
	if buckets == nil {
		return nil
	}
	n = len(buckets)
	width := bucketWidth(uint64(q.Interval.End-q.Interval.Start), n)
	ids := ix.Query(q)
	for _, id := range ids {
		o := &c.Objects[id]
		// Clip once, then touch only the overlapped bucket range.
		clip, ok := o.Interval.Intersect(q.Interval)
		if !ok {
			continue
		}
		first := int(min(uint64(clip.Start-q.Interval.Start)/width, uint64(n-1)))
		last := int(min(uint64(clip.End-q.Interval.Start)/width, uint64(n-1)))
		for b := first; b <= last; b++ {
			part, ok := clip.Intersect(buckets[b].Span)
			if !ok {
				continue
			}
			buckets[b].Count++
			buckets[b].Mass += part.Duration()
		}
	}
	return buckets
}
