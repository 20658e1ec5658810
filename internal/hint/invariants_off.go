//go:build !invariants

package hint

import "repro/internal/postings"

// InvariantsEnabled reports whether the runtime assertion layer is
// compiled in (the `invariants` build tag, exercised by CI).
const InvariantsEnabled = false

// assertPartitionSorted is a no-op in normal builds; see invariants_on.go.
func assertPartitionSorted(*Partition, string) {}

// assertDirectorySorted is a no-op in normal builds; see invariants_on.go.
func assertDirectorySorted(*Directory[Partition], string) {}

// assertNoTombstoneEntries is a no-op in normal builds; see invariants_on.go.
func assertNoTombstoneEntries([]postings.Posting, string) {}
