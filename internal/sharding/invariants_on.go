//go:build invariants

package sharding

import "fmt"

// InvariantsEnabled reports whether the runtime assertion layer is
// compiled in (the `invariants` build tag, exercised by CI).
const InvariantsEnabled = true

// assertShards panics unless every shard is sorted by start and every
// ideal shard's ends are non-decreasing. Compiled out of normal builds.
func assertShards(shards [][]shard, context string) {
	for e := range shards {
		for i, s := range shards[e] {
			for k := 1; k < len(s.entries); k++ {
				if a, b := s.entries[k-1].Interval, s.entries[k].Interval; a.Start > b.Start || (s.ideal && a.End > b.End) {
					// invariants build: a broken shard order must abort loudly
					panic(fmt.Sprintf("sharding: invariant violated: element %d shard %d (ideal %v) out of order at %d in %s", e, i, s.ideal, k, context))
				}
			}
		}
	}
}
