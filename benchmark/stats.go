package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count); vs is left untouched. An empty input yields 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileUS returns the q-quantile of an ascending nanosecond sample
// set, in microseconds. An empty input yields 0.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// medianUS sorts ns in place and returns its median in microseconds.
func medianUS(ns []int64) float64 {
	slices.Sort(ns)
	return quantileUS(ns, 0.5)
}

// spreadPct is the distance between the first and third quartile of vs
// as a percentage of its median — the spread the acceptance check uses.
func spreadPct(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	q1, q3 := quartile(s, 1), quartile(s, 3)
	return 100 * (q3 - q1) / math.Abs(m)
}

// quartile reproduces Python's statistics.quantiles(values, n=4)
// (exclusive method) on an ascending slice of at least two values.
func quartile(sorted []float64, k int) float64 {
	n := len(sorted)
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// rangePct is (max-min)/median of vs, in percent.
func rangePct(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return 100 * (hi - lo) / math.Abs(m)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
