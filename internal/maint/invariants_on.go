//go:build invariants

package maint

import (
	"fmt"

	"repro/internal/model"
)

// maintInvariantsEnabled reports whether generation well-formedness
// checks are compiled in (-tags invariants).
const maintInvariantsEnabled = true

// checkGeneration asserts the structural invariants every published
// generation must satisfy. It runs on every publish under
// -tags invariants and compiles to a no-op otherwise.
//
//   - internal ids are dense positions: coll.Objects[i].ID == i
//   - the external-id table is parallel to the objects and strictly
//     ascending (so binary search is valid), every entry below the
//     set's next id
//   - the base index covers exactly the compacted prefix, and the
//     memtable is the rest
//   - every tombstone refers to a stored object
//   - the extent is set exactly when objects are stored, and covers
//     every one of them
func checkGeneration(g *Generation, next model.ObjectID) {
	n := len(g.coll.Objects)
	if len(g.ext) != n {
		panic(fmt.Sprintf("maint: invariant violation: ext table len %d != objects len %d", len(g.ext), n))
	}
	for i := range g.coll.Objects {
		if int(g.coll.Objects[i].ID) != i {
			panic(fmt.Sprintf("maint: invariant violation: object at position %d has internal id %d", i, g.coll.Objects[i].ID))
		}
		if i > 0 && g.ext[i-1] >= g.ext[i] {
			panic(fmt.Sprintf("maint: invariant violation: ext table not strictly ascending at %d (%d >= %d)", i, g.ext[i-1], g.ext[i]))
		}
		if iv := g.coll.Objects[i].Interval; g.extent.iv.Union(iv) != g.extent.iv {
			panic(fmt.Sprintf("maint: invariant violation: object %d's lifespan %v outside the extent %v", i, iv, g.extent.iv))
		}
	}
	if g.extent.set != (n > 0) {
		panic(fmt.Sprintf("maint: invariant violation: extent set is %v with %d stored objects", g.extent.set, n))
	}
	if n > 0 && g.ext[n-1] >= next {
		panic(fmt.Sprintf("maint: invariant violation: next id %d not past last external id %d", next, g.ext[n-1]))
	}
	if g.compactLen < 0 || g.compactLen > n {
		panic(fmt.Sprintf("maint: invariant violation: compactLen %d out of range [0,%d]", g.compactLen, n))
	}
	if got := g.base.Len(); got != g.compactLen {
		panic(fmt.Sprintf("maint: invariant violation: base index len %d != compactLen %d", got, g.compactLen))
	}
	for id := range g.dead.ids {
		if int(id) >= n {
			panic(fmt.Sprintf("maint: invariant violation: tombstone %d beyond %d stored objects", id, n))
		}
	}
}
