package testutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/model"
)

// Cross-method differential harness: seeded corpora plus query workloads
// on which every index in the family must return byte-identical result
// sets to the brute-force oracle — and therefore to each other. The
// method table itself lives in the root package's differential test (the
// only place all eight constructors are visible without an import
// cycle); this file holds the root-free machinery.

// BuildFunc constructs one index variant over a collection.
type BuildFunc func(c *model.Collection) model.Querier

// DifferentialWorkload is one seeded corpus + query set of the harness.
type DifferentialWorkload struct {
	Name    string
	Config  CollectionConfig
	Queries int   // random queries generated
	QSeed   int64 // query generator seed
}

// DefaultDifferentialWorkloads returns the harness's standard workloads:
// deliberately varied in corpus size, domain span, dictionary size and
// description width, so replication depth, slice widths and planning
// order all shift between them.
func DefaultDifferentialWorkloads() []DifferentialWorkload {
	return []DifferentialWorkload{
		{
			Name:    "baseline",
			Config:  DefaultConfig(1001),
			Queries: 200,
			QSeed:   2001,
		},
		{
			Name:    "dense-small-domain",
			Config:  CollectionConfig{N: 600, DomainLo: 0, DomainHi: 500, Dict: 12, MaxDesc: 4, Seed: 1002},
			Queries: 200,
			QSeed:   2002,
		},
		{
			Name:    "sparse-wide-domain",
			Config:  CollectionConfig{N: 300, DomainLo: -40000, DomainHi: 40000, Dict: 80, MaxDesc: 8, Seed: 1003},
			Queries: 200,
			QSeed:   2003,
		},
		{
			Name:    "rich-descriptions",
			Config:  CollectionConfig{N: 250, DomainLo: 0, DomainHi: 10000, Dict: 20, MaxDesc: 12, Seed: 1004},
			Queries: 150,
			QSeed:   2004,
		},
	}
}

// WorkloadQueries materializes the workload's query set: the seeded
// random queries plus the boundary sweep every method must agree on.
func (w DifferentialWorkload) WorkloadQueries() []model.Query {
	qs := RandomQueries(w.Config, w.Queries, w.QSeed)
	return append(qs, BoundaryQueries(w.Config)...)
}

// BoundaryQueries returns the boundary-semantics sweep for a config:
// point queries (start == end), domain-edge intervals touching DomainLo
// and DomainHi, full-domain spans, unknown elements (>= Dict), and empty
// element lists — each a case where methods have historically diverged.
func BoundaryQueries(cfg CollectionConfig) []model.Query {
	lo, hi := model.Timestamp(cfg.DomainLo), model.Timestamp(cfg.DomainHi)
	mid := lo + (hi-lo)/2
	unknown := model.ElemID(cfg.Dict) // first id outside the dictionary
	qs := []model.Query{
		// Point queries at the edges and middle, with and without elems.
		{Interval: model.NewInterval(lo, lo)},
		{Interval: model.NewInterval(hi, hi)},
		{Interval: model.NewInterval(mid, mid)},
		{Interval: model.NewInterval(lo, lo), Elems: []model.ElemID{0}},
		{Interval: model.NewInterval(hi, hi), Elems: []model.ElemID{0}},
		{Interval: model.NewInterval(mid, mid), Elems: []model.ElemID{0, 1}},
		// Domain-edge and full-domain intervals.
		{Interval: model.NewInterval(lo, mid)},
		{Interval: model.NewInterval(mid, hi)},
		{Interval: model.NewInterval(lo, hi)},
		{Interval: model.NewInterval(lo, hi), Elems: []model.ElemID{0}},
		{Interval: model.NewInterval(lo, hi), Elems: []model.ElemID{0, 1, 2}},
		// Unknown elements: alone, and conjoined with a known one.
		{Interval: model.NewInterval(lo, hi), Elems: []model.ElemID{unknown}},
		{Interval: model.NewInterval(lo, hi), Elems: []model.ElemID{unknown + 7}},
		{Interval: model.NewInterval(mid, hi), Elems: []model.ElemID{0, unknown}},
		// Empty element list: pure temporal selection.
		{Interval: model.NewInterval(mid, mid), Elems: nil},
		{Interval: model.NewInterval(lo, hi), Elems: nil},
	}
	return qs
}

// ResultChecksum hashes a result set in canonical form (ascending ids,
// deduplicated, big-endian 8-byte encoding). Two methods agree on a
// query exactly when their checksums match, and the hex digest is what
// the bench harness records for cross-run comparison.
func ResultChecksum(ids []model.ObjectID) string {
	canon := Canonical(ids)
	h := sha256.New()
	var buf [8]byte
	for _, id := range canon {
		binary.BigEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WorkloadChecksum folds per-query checksums into one digest for a whole
// workload: the row count then each query's canonical result hash.
func WorkloadChecksum(results [][]model.ObjectID) string {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(len(results)))
	h.Write(buf[:])
	for _, ids := range results {
		sum, _ := hex.DecodeString(ResultChecksum(ids))
		h.Write(sum)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CheckDifferential runs one workload against a set of named builders:
// every method's canonical result must be byte-identical to indexAnswer's
// on every query. It reports each divergence with the offending method,
// query and both result sets.
func CheckDifferential(t *testing.T, w DifferentialWorkload, methods []string, build func(name string, c *model.Collection) model.Querier) {
	t.Helper()
	c := RandomCollection(w.Config)
	oracle := bruteforce.New(c)
	queries := w.WorkloadQueries()
	want := make([][]model.ObjectID, len(queries))
	for i, q := range queries {
		want[i] = indexAnswer(oracle, q)
	}
	wantSum := WorkloadChecksum(want)
	for _, name := range methods {
		ix := build(name, c)
		got := make([][]model.ObjectID, len(queries))
		for i, q := range queries {
			got[i] = Canonical(ix.Query(q))
			if !model.EqualIDs(got[i], want[i]) {
				t.Errorf("%s/%s: query %d (%v elems=%v): got %v, want %v",
					w.Name, name, i, queries[i].Interval, queries[i].Elems, got[i], want[i])
			}
		}
		if sum := WorkloadChecksum(got); sum != wantSum {
			t.Errorf("%s/%s: workload checksum %s differs from oracle %s",
				w.Name, name, sum, wantSum)
		}
	}
}
