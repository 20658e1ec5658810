package hint

import (
	"repro/internal/domain"
	"repro/internal/model"
)

// CostModelConfig parameterizes EstimateM.
type CostModelConfig struct {
	// ExtentFraction is the expected query extent as a fraction of the
	// domain (the paper's default workload uses 0.1%).
	ExtentFraction float64
	// MaxM bounds the search. Zero means domain.MaxBits capped at the
	// bits needed for one cell per domain unit.
	MaxM int
	// SampleSize bounds how many intervals are simulated (0 = 4096).
	SampleSize int
	// PartitionOverhead is the per-relevant-partition cost in
	// entry-scan equivalents (directory probe + cache line). 8 matches
	// the pointer-chasing cost observed in the original evaluation.
	PartitionOverhead float64
}

// DefaultCostModelConfig mirrors the paper's default query workload.
func DefaultCostModelConfig() CostModelConfig {
	return CostModelConfig{ExtentFraction: 0.001, SampleSize: 4096, PartitionOverhead: 8}
}

// EstimateM implements the spirit of the HINT cost model (Section 2.3 /
// [19]): pick the number of hierarchy bits m minimizing the expected
// query cost
//
//	cost(m) = sum_l entries_l(m) * P[touch | level l] + overhead * E[#relevant partitions]
//
// where entries_l(m) comes from simulating the assignment of a sample of
// the input on an m-bit grid, and an entry at level l is touched when the
// query's relevant range at that level covers its partition:
// P ~ min(1, extent + 2^(1-l)).
//
// Coarse grids put every interval in few, always-relevant partitions
// (many useless comparisons); fine grids replicate intervals across many
// levels and touch many partitions per level. The minimum sits between,
// growing with input size and shrinking with duration — the behaviour
// Section 5.2 relies on.
//
// Only a strided sample of the objects' lifespans is read, in place.
func EstimateM(objs []model.Object, span model.Interval, cfg CostModelConfig) int {
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 4096
	}
	if cfg.ExtentFraction <= 0 {
		cfg.ExtentFraction = 0.001
	}
	if cfg.PartitionOverhead <= 0 {
		cfg.PartitionOverhead = 8
	}
	maxM := cfg.MaxM
	if maxM <= 0 || maxM > domain.MaxBits {
		maxM = 20
	}
	// Cap m so cells are not finer than single time units.
	spanUnits := int64(span.End-span.Start) + 1
	for maxM > 1 && int64(1)<<uint(maxM) > spanUnits {
		maxM--
	}
	n := len(objs)
	if n == 0 {
		return 8
	}
	step := 1
	if n > cfg.SampleSize {
		step = n / cfg.SampleSize
	}
	sample := make([]model.Interval, 0, (n+step-1)/step)
	for i := 0; i < n; i += step {
		sample = append(sample, objs[i].Interval)
	}
	scale := float64(n) / float64(len(sample))

	bestM, bestCost := 1, 0.0
	for m := 1; m <= maxM; m++ {
		dom, err := domain.Make(span.Start, span.End, m)
		if err != nil {
			break
		}
		probe := New(dom)
		perLevel := make([]float64, m+1)
		for _, iv := range sample {
			probe.visitAssignments(iv, func(level int, j uint32, original, endsInside bool) {
				perLevel[level]++
			})
		}
		cost := 0.0
		parts := 0.0
		for level := 0; level <= m; level++ {
			touch := cfg.ExtentFraction + 2.0/float64(uint64(1)<<uint(level))
			if touch > 1 {
				touch = 1
			}
			cost += perLevel[level] * scale * touch
			rel := cfg.ExtentFraction*float64(uint64(1)<<uint(level)) + 2
			if rel > float64(uint64(1)<<uint(level)) {
				rel = float64(uint64(1) << uint(level))
			}
			parts += rel
		}
		cost += cfg.PartitionOverhead * parts
		if m == 1 || cost < bestCost {
			bestM, bestCost = m, cost
		}
	}
	return bestM
}
