//go:build invariants

package maint

import "fmt"

// maintInvariantsEnabled reports whether generation well-formedness
// checks are compiled in (-tags invariants).
const maintInvariantsEnabled = true

// checkGeneration asserts the structural invariants every published
// generation must satisfy. It runs on every publish under
// -tags invariants and compiles to a no-op otherwise.
//
//   - internal ids are dense positions: coll.Objects[i].ID == i
//   - the external-id table is parallel to the objects and strictly
//     ascending (so binary search is valid), every entry already
//     handed out by the allocator
//   - the memtable is exactly the suffix past the compacted prefix and
//     the base index covers exactly that prefix
//   - every tombstone refers to a stored object
func checkGeneration(g *Generation, alloc *IDAllocator) {
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
	}
	if next := alloc.Next(); n > 0 && g.ext[n-1] >= next {
		panic(fmt.Sprintf("maint: invariant violation: allocator's next id %d not past last external id %d", next, g.ext[n-1]))
	}
	if g.compactLen < 0 || g.compactLen > n {
		panic(fmt.Sprintf("maint: invariant violation: compactLen %d out of range [0,%d]", g.compactLen, n))
	}
	if g.mem.Len() != n-g.compactLen {
		panic(fmt.Sprintf("maint: invariant violation: memtable len %d != %d objects past compacted prefix", g.mem.Len(), n-g.compactLen))
	}
	if g.mem.Len() > 0 && int(g.mem.objs[0].ID) != g.compactLen {
		panic(fmt.Sprintf("maint: invariant violation: first memtable id %d != compactLen %d", g.mem.objs[0].ID, g.compactLen))
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
