package testutil

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/model"
)

// CheckInsertAfterBulk pins the hazard of carving lists from one shared
// arena: a view cut without its capacity bound lets an Insert append into
// the next list. ix is bulk-built over c = RandomCollection(cfg), and lists
// returns every list of ix by name, as the ids it stores in stored order.
// Objects repeating every fifth stored object's interval and elements
// under fresh, larger ids land only in lists that already exist;
// afterwards every list, less the new ids, must be its snapshot. A mixed
// run of deletes and inserts, some carrying elements no stored object
// has, must then leave ix answering as the brute-force oracle does, by
// workload digest.
func CheckInsertAfterBulk(t *testing.T, cfg CollectionConfig, c *model.Collection, ix UpdatableIndex, lists func() map[string][]model.ObjectID) {
	t.Helper()
	before := lists()
	all := slices.Clone(c.Objects)
	for i := 0; i < len(c.Objects); i += 5 {
		o := c.Objects[i]
		o.ID = model.ObjectID(len(all))
		all = append(all, o)
		ix.Insert(o)
	}
	after := lists()
	if len(after) != len(before) {
		t.Fatalf("%d lists after the inserts, %d before", len(after), len(before))
	}
	for name, ids := range after {
		was, ok := before[name]
		if !ok {
			t.Fatalf("%s: list created by an insert of existing elements", name)
		}
		old := slices.DeleteFunc(slices.Clone(ids), func(id model.ObjectID) bool { return int(id) >= len(c.Objects) })
		if !slices.Equal(old, was) {
			t.Fatalf("%s: stored ids %v, were %v — an insert wrote into a neighbouring list", name, old, was)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	oracle := bruteforce.New(&model.Collection{Objects: slices.Clone(all)})
	fresh := RandomCollection(CollectionConfig{N: 100, DomainLo: cfg.DomainLo, DomainHi: cfg.DomainHi, Dict: cfg.Dict + 10, MaxDesc: 4, Seed: cfg.Seed + 2})
	victims := rng.Perm(len(all))[:len(all)/4]
	for k := 0; k < len(victims) || k < len(fresh.Objects); k++ {
		if k < len(victims) {
			ix.Delete(all[victims[k]])
			oracle.Delete(all[victims[k]].ID)
		}
		if k < len(fresh.Objects) {
			o := fresh.Objects[k]
			o.ID = model.ObjectID(len(all) + k)
			ix.Insert(o)
			oracle.Insert(o)
		}
	}
	queries := RandomQueries(cfg, 200, cfg.Seed+3)
	got, want := make([][]model.ObjectID, len(queries)), make([][]model.ObjectID, len(queries))
	for i, q := range queries {
		got[i], want[i] = ix.Query(q), oracle.Query(q)
	}
	if g, w := WorkloadChecksum(got), WorkloadChecksum(want); g != w {
		t.Errorf("after deletes and inserts: digest %s, oracle %s", g, w)
	}
}
