//go:build !invariants

package sharding

// InvariantsEnabled reports whether the runtime assertion layer is
// compiled in (the `invariants` build tag, exercised by CI).
const InvariantsEnabled = false

// assertShards is a no-op in normal builds; see invariants_on.go.
func assertShards([][]shard, string) {}
