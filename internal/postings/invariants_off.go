//go:build !invariants

package postings

// InvariantsEnabled reports whether the runtime assertion layer is
// compiled in (the `invariants` build tag, exercised by CI).
const InvariantsEnabled = false

// assertSorted is a no-op in normal builds; see invariants_on.go.
func assertSorted[E Entry]([]E, string) {}
