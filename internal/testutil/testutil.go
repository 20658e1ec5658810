// Package testutil provides shared helpers for the index test suites:
// deterministic random collections and queries, and an equivalence checker
// that compares any index against the brute-force oracle across randomized
// workloads, insertions and deletions.
package testutil

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/model"
)

// CollectionConfig shapes RandomCollection output.
type CollectionConfig struct {
	N        int   // number of objects
	DomainLo int64 // min timestamp
	DomainHi int64 // max timestamp
	Dict     int   // dictionary size
	MaxDesc  int   // max description size (>=1)
	Seed     int64
}

// DefaultConfig returns a config that exercises replication, long and short
// intervals and frequent/rare elements.
func DefaultConfig(seed int64) CollectionConfig {
	return CollectionConfig{N: 400, DomainLo: 0, DomainHi: 5000, Dict: 30, MaxDesc: 6, Seed: seed}
}

// RandomCollection builds a seeded random collection. Durations are skewed:
// most intervals are short, some span large fractions of the domain, and a
// few are points — mirroring the zipfian durations of the paper's data.
func RandomCollection(cfg CollectionConfig) *model.Collection {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &model.Collection{DictSize: cfg.Dict}
	span := cfg.DomainHi - cfg.DomainLo + 1
	for i := 0; i < cfg.N; i++ {
		start := cfg.DomainLo + rng.Int63n(span)
		var dur int64
		switch rng.Intn(10) {
		case 0: // long interval
			dur = rng.Int63n(span / 2)
		case 1: // point
			dur = 0
		default: // short
			dur = rng.Int63n(span/20 + 1)
		}
		end := start + dur
		if end > cfg.DomainHi {
			end = cfg.DomainHi
		}
		nd := 1 + rng.Intn(cfg.MaxDesc)
		elems := make([]model.ElemID, nd)
		for j := range elems {
			// Skewed: low ids are much more frequent.
			e := int(float64(cfg.Dict) * rng.Float64() * rng.Float64())
			if e >= cfg.Dict {
				e = cfg.Dict - 1
			}
			elems[j] = model.ElemID(e)
		}
		c.AppendObject(model.NewInterval(start, end), elems)
	}
	return c
}

// RandomQueries generates seeded random time-travel IR queries over the
// collection's domain, with 1..4 elements and extents from points to most
// of the domain.
func RandomQueries(cfg CollectionConfig, n int, seed int64) []model.Query {
	rng := rand.New(rand.NewSource(seed))
	span := cfg.DomainHi - cfg.DomainLo + 1
	qs := make([]model.Query, n)
	for i := range qs {
		start := cfg.DomainLo + rng.Int63n(span)
		var extent int64
		switch rng.Intn(4) {
		case 0:
			extent = 0
		case 1:
			extent = rng.Int63n(span/100 + 1)
		case 2:
			extent = rng.Int63n(span/10 + 1)
		default:
			extent = rng.Int63n(span)
		}
		end := start + extent
		if end > cfg.DomainHi {
			end = cfg.DomainHi
		}
		ne := 1 + rng.Intn(4)
		elems := make([]model.ElemID, ne)
		for j := range elems {
			e := int(float64(cfg.Dict) * rng.Float64() * rng.Float64())
			if e >= cfg.Dict {
				e = cfg.Dict - 1
			}
			elems[j] = model.ElemID(e)
		}
		qs[i] = model.Query{Interval: model.NewInterval(start, end), Elems: model.NormalizeElems(elems)}
	}
	return qs
}

// Canonical sorts and dedups a result set so indices with different output
// orders can be compared. It sorts with slices.Sort, not model.SortIDs,
// so that the harness never checks the id-sort kernel against itself.
func Canonical(ids []model.ObjectID) []model.ObjectID {
	out := append([]model.ObjectID(nil), ids...)
	slices.Sort(out)
	return model.DedupIDs(out)
}

// CheckAgainstOracle runs every query against both the index under test and
// the brute-force oracle, failing the test on the first mismatch.
func CheckAgainstOracle(t *testing.T, name string, ix model.Querier, c *model.Collection, queries []model.Query) {
	t.Helper()
	oracle := bruteforce.New(c)
	for i, q := range queries {
		got := Canonical(ix.Query(q))
		want := Canonical(oracle.Query(q))
		if !model.EqualIDs(got, want) {
			t.Fatalf("%s: query %d (%v elems=%v): got %v, want %v",
				name, i, q.Interval, q.Elems, got, want)
		}
	}
}

// CheckUpdates exercises the update path: build the index over the first
// 80%% of the collection, insert the rest, delete a deterministic subset,
// and verify equivalence with an oracle subjected to the same updates.
func CheckUpdates(t *testing.T, name string, build func(c *model.Collection) model.Index, cfg CollectionConfig) {
	t.Helper()
	full := RandomCollection(cfg)
	cut := len(full.Objects) * 8 / 10

	base := &model.Collection{Objects: full.Objects[:cut], DictSize: full.DictSize}
	ix := build(base)
	oracle := bruteforce.New(base)

	for _, o := range full.Objects[cut:] {
		ix.Insert(o)
		oracle.Insert(o)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	deleted := map[model.ObjectID]bool{}
	for i := 0; i < len(full.Objects)/10; i++ {
		victim := full.Objects[rng.Intn(len(full.Objects))]
		if deleted[victim.ID] {
			continue
		}
		deleted[victim.ID] = true
		ix.Delete(victim)
		oracle.Delete(victim.ID)
	}

	queries := RandomQueries(cfg, 150, cfg.Seed+7)
	for i, q := range queries {
		got := Canonical(ix.Query(q))
		want := Canonical(oracle.Query(q))
		if !model.EqualIDs(got, want) {
			t.Fatalf("%s: post-update query %d (%v elems=%v): got %v, want %v",
				name, i, q.Interval, q.Elems, got, want)
		}
	}
}
