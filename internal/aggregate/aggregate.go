// Package aggregate implements temporal aggregation over time-travel IR
// results — the "statistical information over time" capability of the
// temporal keyword search line of work the paper surveys (Section 6.3,
// Gao et al.): instead of listing matching objects, report how many (and
// how much lifespan) fall into each bucket of a time partition.
package aggregate

import (
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
	width := q.Interval.Duration() / int64(n)
	if width < 1 {
		width = 1
		if d := q.Interval.Duration(); d < int64(n) {
			n = int(d)
		}
	}
	buckets := make([]Bucket, n)
	for i := range buckets {
		lo := q.Interval.Start + model.Timestamp(int64(i)*width)
		hi := lo + model.Timestamp(width) - 1
		if i == n-1 {
			hi = q.Interval.End
		}
		buckets[i].Span = model.NewInterval(lo, hi)
	}
	return buckets
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
	width := int64(buckets[0].Span.Duration())
	ids := ix.Query(q)
	for _, id := range ids {
		o := &c.Objects[id]
		// Clip once, then touch only the overlapped bucket range.
		clip, ok := o.Interval.Intersect(q.Interval)
		if !ok {
			continue
		}
		first := int(int64(clip.Start-q.Interval.Start) / width)
		last := int(int64(clip.End-q.Interval.Start) / width)
		if last >= n {
			last = n - 1
		}
		if first >= n {
			first = n - 1
		}
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
