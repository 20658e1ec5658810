package temporalir_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	temporalir "repro"
	"repro/internal/bruteforce"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// methodNames is the full family — the seven paper-table methods plus
// the base tIF (allMethods in edgecases_test.go) — as harness keys.
func methodNames() []string {
	ms := allMethods()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = string(m)
	}
	return names
}

// TestDifferentialAllMethods is the cross-method differential harness:
// on every seeded workload, all eight methods must return byte-identical
// result sets to the brute-force oracle — including the boundary sweep
// (point queries, domain edges, unknown elements, empty element lists).
func TestDifferentialAllMethods(t *testing.T) {
	for _, w := range testutil.DefaultDifferentialWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			testutil.CheckDifferential(t, w, methodNames(),
				func(name string, c *temporalir.Collection) model.Querier {
					ix, err := temporalir.NewIndex(temporalir.Method(name), c, temporalir.Options{})
					if err != nil {
						t.Fatalf("building %s: %v", name, err)
					}
					return ix
				})
		})
	}
}

// TestDifferentialBatchMatchesSerial checks, for every method, that
// SearchBatchCtx over the engine returns byte-identical rows (same workload
// checksum) as the serial Query loop — the serial-vs-parallel agreement
// the executor guarantees.
func TestDifferentialBatchMatchesSerial(t *testing.T) {
	w := testutil.DefaultDifferentialWorkloads()[0]
	c := testutil.RandomCollection(w.Config)
	queries := w.WorkloadQueries()
	for _, m := range allMethods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			eng, err := temporalir.EngineFromCollection(c, m, temporalir.Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng.SetParallelism(4)
			serial := make([][]temporalir.ObjectID, len(queries))
			ix, err := temporalir.NewIndex(m, c, temporalir.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				serial[i] = testutil.Canonical(ix.Query(q))
			}
			batch := eng.SearchBatchCtx(context.Background(), queries)
			rows := make([][]temporalir.ObjectID, len(batch))
			for i, r := range batch {
				if r.Err != nil {
					t.Fatalf("batch row %d: %v", i, r.Err)
				}
				rows[i] = r.IDs
			}
			if got, want := testutil.WorkloadChecksum(rows), testutil.WorkloadChecksum(serial); got != want {
				t.Fatalf("%s: batch checksum %s != serial %s", m, got, want)
			}
		})
	}
}

// TestDifferentialWideAnswers pins answers wider than SortIDs's radix
// cutoff: full-domain queries over a 3 000-object corpus whose element 0
// is on most objects, issued through Engine.Search to all nine methods.
// Each answer must come back exactly as the oracle's canonical set —
// ascending, deduplicated — and the workload digest must match. Every
// query is then issued again with an obs.Trace on its context: tracing
// must record stages and never change an answer, so that digest must
// match too.
func TestDifferentialWideAnswers(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 3000, DomainLo: 0, DomainHi: 5000, Dict: 6, MaxDesc: 4, Seed: 1005}
	c := testutil.RandomCollection(cfg)
	full := temporalir.NewInterval(cfg.DomainLo, cfg.DomainHi)
	queries := []temporalir.Query{
		{Interval: full, Elems: []temporalir.ElemID{0}},
		{Interval: full, Elems: []temporalir.ElemID{0, 1}},
		{Interval: full},
		{Interval: temporalir.NewInterval(cfg.DomainHi/3, cfg.DomainHi), Elems: []temporalir.ElemID{0}},
	}
	oracle := bruteforce.New(c)
	want := make([][]temporalir.ObjectID, len(queries))
	for i, q := range queries {
		want[i] = testutil.Canonical(oracle.Query(q))
	}
	if n := len(want[0]); n < 1000 {
		t.Fatalf("oracle answers %d ids to the full-domain one-element query, want >= 1000", n)
	}
	wantSum := testutil.WorkloadChecksum(want)
	for _, m := range append(allMethods(), temporalir.Routed) {
		eng := engineOver(t, c, m)
		got := make([][]temporalir.ObjectID, len(queries))
		traced := make([][]temporalir.ObjectID, len(queries))
		tr := obs.NewTrace("search")
		ctx := obs.ContextWithTrace(context.Background(), tr)
		for i, q := range queries {
			terms := make([]string, len(q.Elems))
			for j, e := range q.Elems {
				terms[j] = fmt.Sprintf("t%03d", e)
			}
			got[i] = eng.Search(q.Interval.Start, q.Interval.End, terms...)
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%s: query %d (%v elems=%v): %d ids differ from the oracle's %d in order or content",
					m, i, q.Interval, q.Elems, len(got[i]), len(want[i]))
			}
			var err error
			if traced[i], err = eng.SearchCtx(ctx, q.Interval.Start, q.Interval.End, terms...); err != nil {
				t.Fatalf("%s: traced query %d: %v", m, i, err)
			}
		}
		if sum := testutil.WorkloadChecksum(got); sum != wantSum {
			t.Errorf("%s: workload checksum %s differs from oracle %s", m, sum, wantSum)
		}
		if sum := testutil.WorkloadChecksum(traced); sum != wantSum {
			t.Errorf("%s: traced workload checksum %s differs from oracle %s", m, sum, wantSum)
		}
		if len(tr.Summary().Stages) == 0 {
			t.Errorf("%s: traced queries recorded no stages", m)
		}
	}
}

// engineOver builds an Engine of the given method over a collection by
// replaying its objects through the Builder with synthetic term strings.
func engineOver(t *testing.T, c *temporalir.Collection, m temporalir.Method) *temporalir.Engine {
	t.Helper()
	b := temporalir.NewBuilder()
	for i := range c.Objects {
		o := &c.Objects[i]
		terms := make([]string, len(o.Elems))
		for j, e := range o.Elems {
			terms[j] = fmt.Sprintf("t%03d", e)
		}
		b.Add(o.Interval.Start, o.Interval.End, terms...)
	}
	eng, err := b.Build(m, temporalir.Options{})
	if err != nil {
		t.Fatalf("building engine %s: %v", m, err)
	}
	return eng
}
