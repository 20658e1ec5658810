package maint

import (
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Set is the N ≥ 1 stores of one engine and the one view readers load:
// every store's current generation behind a single atomic pointer. A
// store publishes by replacing the whole view under the set's publish
// mutex, so one View returns one instant of every store: a reader that
// sees any store's write also sees every write published before it.
type Set struct {
	stores []*Store // immutable after NewSet
	// next is the one external-id sequence every store draws from, so
	// ids follow insertion order whatever the store count.
	next atomic.Uint64

	// pmu serializes view replacement. It is a leaf lock: publish takes
	// it inside a store's mu and takes nothing under it.
	pmu sync.Mutex
	// view holds every store's generation, indexed like stores. Only
	// View loads it and only publish stores it.
	view atomic.Pointer[[]*Generation]
}

// Part is what one store starts from: a base index built over Coll, the
// BuildFunc compaction rebuilds it with, and each object's external id,
// parallel to Coll.Objects and strictly ascending. The set takes
// ownership of Coll's object slice and of Ext.
type Part struct {
	Coll  *model.Collection
	Base  model.Index
	Build BuildFunc
	Ext   []model.ObjectID
}

// NewSet wraps each part in a generational store. Appends draw external
// ids from next on, so a set rebuilt from a saved table and counter
// hands out exactly the ids the saved one would have; every id in the
// parts' tables must be below next.
func NewSet(parts []Part, next model.ObjectID) *Set {
	t := &Set{stores: make([]*Store, len(parts))}
	t.next.Store(uint64(next))
	for i, p := range parts {
		t.stores[i] = newStore(t, i, p)
	}
	return t
}

// Stores returns the set's stores, indexed like View; callers must not
// modify the slice.
func (t *Set) Stores() []*Store { return t.stores }

// View returns every store's current generation, all from one instant;
// callers must not modify the slice.
func (t *Set) View() []*Generation { return *t.view.Load() }

// NextID returns the external id the next Append of any store hands out.
func (t *Set) NextID() model.ObjectID { return model.ObjectID(t.next.Load()) }

// publish validates (under -tags invariants) store i's new generation
// and installs a view holding it beside every other store's current
// one. The caller holds store i's mu; stores NewSet has not built yet
// are nil.
func (t *Set) publish(i int, g *Generation) {
	checkGeneration(g, t.NextID())
	v := make([]*Generation, len(t.stores))
	t.pmu.Lock()
	if old := t.view.Load(); old != nil {
		copy(v, *old)
	}
	v[i] = g
	t.view.Store(&v)
	t.pmu.Unlock()
}
