// Package core implements irHINT, the paper's primary contribution
// (Section 4): a single HINT hierarchy over the whole collection whose
// partitions are injected with inverted indexing, so time-travel IR
// queries first prune by time (HINT's strength) and only then touch
// per-division postings.
//
// Two variants are provided, matching Sections 4.1 and 4.2:
//
//   - PerfIndex — every originals/replicas division carries a mini
//     temporal inverted file; each relevant division answers a (reduced)
//     time-travel IR query per Algorithm 5, with the compfirst/complast
//     flags trimming the temporal predicate down to at most one
//     comparison per entry.
//   - SizeIndex — every division decouples the two attributes: one
//     interval store with beneficial sorting (exactly like plain HINT)
//     plus an id-only inverted index, storing each lifespan once.
//     Algorithm 6's two steps run in swapped order: the division's
//     postings lists are intersected first, and the interval store is
//     consulted only where the division still owes a comparison.
package core

import (
	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
)

// Option configures the irHINT constructors.
type Option func(*config)

type config struct {
	m int
}

// WithM fixes the hierarchy bits. Without it the constructors run the
// HINT cost model, which Section 5.4 found effective for irHINT thanks to
// its time-first design.
func WithM(m int) Option {
	return func(c *config) {
		if m > 0 {
			c.m = m
		}
	}
}

// resolveDomain picks the discretization domain: collection span, with m
// fixed or derived from the cost model.
func resolveDomain(c *model.Collection, cfg config) domain.Domain {
	span := domain.Span(c)
	m := cfg.m
	if m == 0 {
		mc := hint.DefaultCostModelConfig()
		mc.MaxM = 16
		// irHINT pays more per relevant division than plain HINT: every
		// division visit probes an element directory (two divisions per
		// partition), so the per-partition overhead is several times the
		// cache-line cost the plain-HINT default models.
		mc.PartitionOverhead = 160
		m = hint.EstimateM(c.Objects, span, mc)
	}
	return domain.Fit(span, m)
}
