// Package stats computes the dataset characteristics the paper reports in
// Table 3 and plots in Figure 7: cardinality, time-domain span, interval
// duration statistics and distribution, description sizes, and element
// frequency statistics and distribution.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/model"
)

// Summary mirrors the rows of Table 3.
type Summary struct {
	Cardinality        int
	TimeDomain         uint64 // span in time units (2^64 saturates)
	MinDuration        uint64 // points covered (2^64 saturates), as TimeDomain
	MaxDuration        uint64
	AvgDuration        float64
	AvgDurationPct     float64 // of the time domain
	DictSize           int     // distinct elements actually used
	MinDescSize        int
	MaxDescSize        int
	AvgDescSize        float64
	MinElemFreq        int
	MaxElemFreq        int
	AvgElemFreq        float64
	AvgElemFreqPct     float64 // of the cardinality
	PostingsTotal      int64   // sum of |d| over all objects
	EstimatedSizeBytes int64   // raw collection bytes (intervals + postings)
}

// Compute derives the summary of a collection.
func Compute(c *model.Collection) Summary {
	var s Summary
	s.Cardinality = c.Len()
	if s.Cardinality == 0 {
		return s
	}
	span, _ := c.Span()
	s.TimeDomain = points(span)
	s.MinDuration = math.MaxUint64
	s.MinDescSize = math.MaxInt32
	for i := range c.Objects {
		o := &c.Objects[i]
		d := points(o.Interval)
		if d < s.MinDuration {
			s.MinDuration = d
		}
		if d > s.MaxDuration {
			s.MaxDuration = d
		}
		s.AvgDuration += float64(d)
		nd := len(o.Elems)
		if nd < s.MinDescSize {
			s.MinDescSize = nd
		}
		if nd > s.MaxDescSize {
			s.MaxDescSize = nd
		}
		s.PostingsTotal += int64(nd)
	}
	s.AvgDuration /= float64(s.Cardinality)
	s.AvgDurationPct = 100 * s.AvgDuration / float64(s.TimeDomain)
	s.AvgDescSize = float64(s.PostingsTotal) / float64(s.Cardinality)

	freqs := c.ElemFreqs()
	s.MinElemFreq = math.MaxInt32
	for _, f := range freqs {
		if f == 0 {
			continue
		}
		s.DictSize++
		if f < s.MinElemFreq {
			s.MinElemFreq = f
		}
		if f > s.MaxElemFreq {
			s.MaxElemFreq = f
		}
		s.AvgElemFreq += float64(f)
	}
	if s.DictSize > 0 {
		s.AvgElemFreq /= float64(s.DictSize)
		s.AvgElemFreqPct = 100 * s.AvgElemFreq / float64(s.Cardinality)
	} else {
		s.MinElemFreq = 0
	}
	s.EstimatedSizeBytes = int64(s.Cardinality)*24 + s.PostingsTotal*4
	return s
}

// points is the number of time points iv covers, saturated at 2^64 - 1
// because [MinInt64, MaxInt64] covers 2^64.
func points(iv model.Interval) uint64 {
	return min(uint64(iv.End-iv.Start), math.MaxUint64-1) + 1
}

// Table renders the summary as the two-column layout of Table 3.
func (s Summary) Table(name string) string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-36s %s\n", k, v) }
	fmt.Fprintf(&b, "== %s ==\n", name)
	row("Cardinality", fmt.Sprintf("%d", s.Cardinality))
	row("Size [MBs]", fmt.Sprintf("%.0f", float64(s.EstimatedSizeBytes)/(1<<20)))
	row("Time domain [units]", fmt.Sprintf("%d", s.TimeDomain))
	row("Min. interval duration [units]", fmt.Sprintf("%d", s.MinDuration))
	row("Max. interval duration [units]", fmt.Sprintf("%d", s.MaxDuration))
	row("Avg. interval duration [units]", fmt.Sprintf("%.0f", s.AvgDuration))
	row("Avg. interval duration [%]", fmt.Sprintf("%.1f", s.AvgDurationPct))
	row("Dictionary size [# elements]", fmt.Sprintf("%d", s.DictSize))
	row("Min. description size [# elems]", fmt.Sprintf("%d", s.MinDescSize))
	row("Max. description size [# elems]", fmt.Sprintf("%d", s.MaxDescSize))
	row("Avg. description size [# elems]", fmt.Sprintf("%.0f", s.AvgDescSize))
	row("Min. element frequency", fmt.Sprintf("%d", s.MinElemFreq))
	row("Max. element frequency", fmt.Sprintf("%d", s.MaxElemFreq))
	row("Avg. element frequency", fmt.Sprintf("%.0f", s.AvgElemFreq))
	row("Avg. element frequency [%]", fmt.Sprintf("%.2f", s.AvgElemFreqPct))
	return b.String()
}

// Histogram is a log-scale bucket histogram, the Figure 7 distributions.
type Histogram struct {
	Label   string
	Buckets []Bucket
}

// Bucket counts values in [Lo, Hi).
type Bucket struct {
	Lo, Hi uint64
	Count  int
}

// LogHistogram buckets values into powers-of-base ranges.
func LogHistogram(label string, values []uint64, base float64) Histogram {
	h := Histogram{Label: label}
	if len(values) == 0 {
		return h
	}
	max := values[0]
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var edges []uint64
	for edge := uint64(1); ; edge = nextEdge(edge, base) {
		edges = append(edges, edge)
		if edge > max || edge == math.MaxUint64 {
			break
		}
	}
	counts := make([]int, len(edges))
	for _, v := range values {
		i := sort.Search(len(edges), func(i int) bool { return edges[i] > v })
		if i >= len(counts) {
			i = len(counts) - 1
		}
		counts[i]++
	}
	lo := uint64(0)
	for i, edge := range edges {
		if counts[i] > 0 {
			h.Buckets = append(h.Buckets, Bucket{Lo: lo, Hi: edge, Count: counts[i]})
		}
		lo = edge
	}
	return h
}

func nextEdge(edge uint64, base float64) uint64 {
	f := float64(edge) * base
	if f >= math.MaxUint64 {
		return math.MaxUint64
	}
	next := uint64(f)
	if next <= edge {
		next = edge + 1
	}
	return next
}

// Durations extracts interval durations, in points as Compute counts
// them, for Figure 7's left panel.
func Durations(c *model.Collection) []uint64 {
	out := make([]uint64, c.Len())
	for i := range c.Objects {
		out[i] = points(c.Objects[i].Interval)
	}
	return out
}

// Frequencies extracts non-zero element frequencies for Figure 7's right
// panel.
func Frequencies(c *model.Collection) []uint64 {
	var out []uint64
	for _, f := range c.ElemFreqs() {
		if f > 0 {
			out = append(out, uint64(f))
		}
	}
	return out
}

// Render draws the histogram as an ASCII bar chart.
func (h Histogram) Render(width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", h.Label)
	max := 0
	for _, bk := range h.Buckets {
		if bk.Count > max {
			max = bk.Count
		}
	}
	if max == 0 {
		return b.String()
	}
	for _, bk := range h.Buckets {
		bar := bk.Count * width / max
		fmt.Fprintf(&b, "%12d-%-12d %8d %s\n", bk.Lo, bk.Hi, bk.Count, strings.Repeat("#", bar))
	}
	return b.String()
}
