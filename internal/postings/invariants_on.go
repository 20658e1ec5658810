//go:build invariants

package postings

import "fmt"

// InvariantsEnabled reports whether the runtime assertion layer is
// compiled in (the `invariants` build tag, exercised by CI).
const InvariantsEnabled = true

// assertSorted panics when s is out of ascending id order — the
// precondition every merge intersection of Algorithm 1 rests on.
// Compiled out of normal builds.
func assertSorted[E Entry](s []E, context string) {
	for i := 1; i < len(s); i++ {
		if idOf(&s[i-1]) > idOf(&s[i]) {
			// invariants build: broken id ordering must abort loudly
			panic(fmt.Sprintf("postings: invariant violated: ids not ascending at %d in %s", i, context))
		}
	}
}
