package temporalir_test

import (
	"testing"

	temporalir "repro"
	"repro/internal/testutil"
)

// TestBoundarySemanticsAllMethods is the boundary sweep as a standalone
// suite: every method must agree with the oracle — and therefore with
// every other method — on point queries (start == end), intervals
// touching the domain edges 0 and 2^m-1 of the discretized grid and
// unknown elements, and must answer empty element lists with nil (the
// generation answers those by a scan; TestBoundaryEngineSearch and
// TestElementFreeQueriesSeeTermlessObjects check that answer). The same
// sweep also rides inside every differential workload; this test pins
// the semantics on a corpus built to sit exactly on the grid edges.
func TestBoundarySemanticsAllMethods(t *testing.T) {
	// A power-of-two domain [0, 2^9-1] so the HINT grid aligns exactly
	// with the domain edges and the last cell is 2^m-1.
	const hi = 1<<9 - 1
	cfg := testutil.CollectionConfig{N: 300, DomainLo: 0, DomainHi: hi, Dict: 16, MaxDesc: 5, Seed: 501}
	c := testutil.RandomCollection(cfg)
	// Pin objects exactly on the edges: alive only at 0, only at hi,
	// spanning the whole domain, and straddling each edge's first cell.
	edge := []struct {
		s, e  temporalir.Timestamp
		elems []temporalir.ElemID
	}{
		{0, 0, []temporalir.ElemID{0}},
		{hi, hi, []temporalir.ElemID{0}},
		{0, hi, []temporalir.ElemID{1}},
		{0, 1, []temporalir.ElemID{2}},
		{hi - 1, hi, []temporalir.ElemID{2}},
	}
	for _, o := range edge {
		c.AppendObject(temporalir.NewInterval(o.s, o.e), o.elems)
	}
	queries := testutil.BoundaryQueries(cfg)
	// Edge-cell point and unit queries on top of the generic sweep.
	queries = append(queries,
		temporalir.Query{Interval: temporalir.NewInterval(0, 0), Elems: []temporalir.ElemID{2}},
		temporalir.Query{Interval: temporalir.NewInterval(hi, hi), Elems: []temporalir.ElemID{2}},
		temporalir.Query{Interval: temporalir.NewInterval(0, 1)},
		temporalir.Query{Interval: temporalir.NewInterval(hi-1, hi)},
	)
	for _, m := range allMethods() {
		ix, err := temporalir.NewIndex(m, c, temporalir.Options{})
		if err != nil {
			t.Fatalf("building %s: %v", m, err)
		}
		testutil.CheckAgainstOracle(t, string(m), ix, c, queries)
	}
}

// TestBoundaryEngineSearch pins the engine-level string surface on the
// same edges: unknown terms make conjunctive results empty, and empty
// term lists select purely on time.
func TestBoundaryEngineSearch(t *testing.T) {
	for _, m := range allMethods() {
		b := temporalir.NewBuilder()
		b.Add(0, 0, "alpha")
		b.Add(9, 9, "alpha", "beta")
		b.Add(0, 9, "gamma")
		eng, err := b.Build(m, temporalir.Options{})
		if err != nil {
			t.Fatalf("building %s: %v", m, err)
		}
		if got := eng.Search(0, 0, "alpha"); len(got) != 1 || got[0] != 0 {
			t.Errorf("%s: point search at 0 = %v, want [0]", m, got)
		}
		if got := eng.Search(9, 9, "alpha"); len(got) != 1 || got[0] != 1 {
			t.Errorf("%s: point search at 9 = %v, want [1]", m, got)
		}
		if got := eng.Search(0, 9, "nosuchterm"); got != nil {
			t.Errorf("%s: unknown term = %v, want nil", m, got)
		}
		if got := eng.Search(0, 9, "alpha", "nosuchterm"); got != nil {
			t.Errorf("%s: known+unknown conjunction = %v, want nil", m, got)
		}
		if got := eng.Search(0, 9); len(got) != 3 {
			t.Errorf("%s: empty term list = %v, want all three", m, got)
		}
	}
}
