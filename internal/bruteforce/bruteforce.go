// Package bruteforce implements a naive full-scan evaluator for time-travel
// IR queries. It is the correctness oracle every index in the repository is
// tested against.
package bruteforce

import (
	"repro/internal/model"
)

// Index evaluates queries by scanning the whole collection. Deleted objects
// are tracked with a tombstone set, mirroring the logical deletions of the
// real indices.
type Index struct {
	objects []model.Object
	deleted map[model.ObjectID]bool
}

// New builds the scan "index" over a collection. The collection's objects
// are referenced, not copied.
func New(c *model.Collection) *Index {
	return &Index{objects: c.Objects, deleted: make(map[model.ObjectID]bool)}
}

// Query returns the ids of all live objects matching q, in ascending order.
func (ix *Index) Query(q model.Query) []model.ObjectID {
	var out []model.ObjectID
	for i := range ix.objects {
		o := &ix.objects[i]
		if ix.deleted[o.ID] {
			continue
		}
		if q.Matches(o) {
			out = append(out, o.ID)
		}
	}
	return out
}

// Insert appends an object. The object's ID must be unique.
func (ix *Index) Insert(o model.Object) {
	ix.objects = append(ix.objects, o)
}

// Delete tombstones an object id.
func (ix *Index) Delete(id model.ObjectID) {
	ix.deleted[id] = true
}

// Len returns the number of live objects.
func (ix *Index) Len() int {
	return len(ix.objects) - len(ix.deleted)
}
