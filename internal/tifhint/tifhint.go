// Package tifhint implements the three novel IR-first indices of Section 3
// of the paper, which replace the slicing/sharding of a temporal inverted
// file with the interval index HINT:
//
//   - BinaryIndex (Algorithm 3): every postings list becomes a HINT with
//     beneficial temporal sorting; intersections probe the candidate set
//     with binary searches.
//   - MergeIndex (Algorithm 4): the per-element HINTs keep their divisions
//     sorted by object id, so intersections run in merge-sort fashion and
//     no temporal comparisons (or compfirst/complast flags) are needed
//     after the first element.
//   - HybridIndex (Section 3.2, tIF+HINT+Slicing): a dual-copy design —
//     an id-sorted HINT answers the first element's range query, while a
//     second sliced copy of each list, storing only <id, t_st> pairs,
//     serves the remaining intersections with far fewer fragments.
package tifhint

// DefaultBinaryM is the paper's tuned grid for the binary-search variant
// (Figure 9: best throughput at m = 10).
const DefaultBinaryM = 10

// DefaultMergeM is the paper's tuned grid for the merge-sort variant and
// the hybrid (Figure 9: m = 5; finer grids fragment the intersections).
const DefaultMergeM = 5

// Option configures the constructors.
type Option func(*config)

type config struct {
	m         int
	numSlices int
}

// WithM fixes the number of HINT bits for every postings HINT.
func WithM(m int) Option {
	return func(c *config) {
		if m > 0 {
			c.m = m
		}
	}
}

// WithSlices sets the slice count of the hybrid's second copy.
func WithSlices(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.numSlices = n
		}
	}
}
