//go:build invariants

package hint

import (
	"fmt"

	"repro/internal/postings"
)

// InvariantsEnabled reports whether the runtime assertion layer is
// compiled in (the `invariants` build tag, exercised by CI).
const InvariantsEnabled = true

// assertPartitionSorted panics when a partition's subdivisions violate
// HINT's beneficial sorting: OIn and OAft ascending by interval start,
// RIn ascending by interval end (RAft is never compared and may stay
// unsorted). Compiled out of normal builds.
func assertPartitionSorted(p *Partition, context string) {
	for i := 1; i < len(p.OIn); i++ {
		if p.OIn[i-1].Interval.Start > p.OIn[i].Interval.Start {
			// lint:panic-ok invariants build: broken beneficial sorting must abort loudly
			panic(fmt.Sprintf("hint: invariant violated: OIn unsorted at %d in %s", i, context))
		}
	}
	for i := 1; i < len(p.OAft); i++ {
		if p.OAft[i-1].Interval.Start > p.OAft[i].Interval.Start {
			// lint:panic-ok invariants build: broken beneficial sorting must abort loudly
			panic(fmt.Sprintf("hint: invariant violated: OAft unsorted at %d in %s", i, context))
		}
	}
	for i := 1; i < len(p.RIn); i++ {
		if p.RIn[i-1].Interval.End > p.RIn[i].Interval.End {
			// lint:panic-ok invariants build: broken beneficial sorting must abort loudly
			panic(fmt.Sprintf("hint: invariant violated: RIn unsorted at %d in %s", i, context))
		}
	}
}

// assertDirectorySorted panics when a level directory's partition keys are
// not strictly ascending — the precondition of every binary-search lookup
// and forRange scan. Compiled out of normal builds.
func assertDirectorySorted(ls *Directory[Partition], context string) {
	for i := 1; i < len(ls.Keys); i++ {
		if ls.Keys[i-1] >= ls.Keys[i] {
			// lint:panic-ok invariants build: broken directory order must abort loudly
			panic(fmt.Sprintf("hint: invariant violated: directory keys not strictly ascending at %d in %s", i, context))
		}
	}
}

// assertNoTombstoneEntries panics when a subdivision stores the postings
// tombstone sentinel: HINT subdivisions flag deletions through the dead
// bit, never by rewriting intervals (that would break the sort order).
func assertNoTombstoneEntries(s []postings.Posting, context string) {
	for i := range s {
		if postings.IsTombstone(s[i].Interval) {
			// lint:panic-ok invariants build: sentinel leakage must abort loudly
			panic(fmt.Sprintf("hint: invariant violated: tombstone sentinel stored at %d in %s", i, context))
		}
	}
}
