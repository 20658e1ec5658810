//go:build invariants

package domain

import "fmt"

// These assertions verify that the domain helpers keep every value on
// the [0, 2^m-1] grid at run time.

// InvariantsEnabled reports whether the runtime assertion layer is
// compiled in (the `invariants` build tag, exercised by CI).
const InvariantsEnabled = true

// assertCell panics when a grid value escapes [0, Cells()-1]. Compiled
// out of normal builds.
func assertCell(d Domain, v uint32, context string) {
	if v >= d.Cells() {
		// invariants build: off-grid cell must abort loudly
		panic(fmt.Sprintf("domain: invariant violated: cell %d outside [0, %d] in %s", v, d.Cells()-1, context))
	}
}

// assertLevel panics when a hierarchy level escapes [0, M]. Compiled out
// of normal builds.
func assertLevel(d Domain, level int, context string) {
	if level < 0 || level > d.M {
		// invariants build: invalid hierarchy level must abort loudly
		panic(fmt.Sprintf("domain: invariant violated: level %d outside [0, %d] in %s", level, d.M, context))
	}
}

// assertPartition panics when partition j does not exist at the level
// (levels have 2^level partitions). Compiled out of normal builds.
func assertPartition(d Domain, level int, j uint32, context string) {
	if uint64(j) >= uint64(1)<<uint(level) {
		// invariants build: nonexistent partition must abort loudly
		panic(fmt.Sprintf("domain: invariant violated: partition %d outside level %d (%d partitions) in %s", j, level, uint64(1)<<uint(level), context))
	}
}
