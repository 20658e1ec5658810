package bench

import (
	"fmt"
	"time"

	temporalir "repro"
	"repro/internal/bruteforce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/gen"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/slicing"
	"repro/internal/tif"
)

// RunAblations quantifies the design choices DESIGN.md calls out:
//
//  1. irHINT hierarchy depth m — the cost-model choice versus a sweep
//     (the Section 5.2 tuning question, answered for the time-first index).
//  2. HINT bottom-up traversal with the compfirst/complast flags versus
//     the conventional top-down traversal (Section 2.3's optimization).
//  3. Reference-value de-duplication versus hash-set de-duplication in
//     tIF+Slicing (the [25] technique the paper adopts).
//  4. Inverted-file compression (Section 7 future work): gap-encoded
//     postings versus the plain layout, size and throughput.
func RunAblations(cfg Config) {
	cfg = cfg.Normalize()
	ds := eclogOnly(cfg)
	queries := defaultWorkload(ds.Coll, cfg)

	// (1) irHINT m sweep.
	t := Table{
		Title:  "Ablation 1: irHINT (perf) hierarchy depth m [" + ds.Name + "]",
		Header: []string{"m", "throughput [q/s]", "size [MB]"},
	}
	auto := core.NewPerf(ds.Coll)
	listed := false
	for _, m := range []int{2, 4, 6, 8, 10, 12} {
		var ix temporalir.Index
		label := fmt.Sprint(m)
		if m == auto.M() {
			ix = auto
			label += " (cost model)"
			listed = true
		} else {
			ix = core.NewPerf(ds.Coll, core.WithM(m))
		}
		t.Add(label, f0(Throughput(ix, queries)), f1(float64(ix.SizeBytes())/(1<<20)))
	}
	if !listed {
		t.Add(fmt.Sprintf("%d (cost model)", auto.M()),
			f0(Throughput(auto, queries)), f1(float64(auto.SizeBytes())/(1<<20)))
	}
	t.Fprint(cfg.Out)

	// (2) Bottom-up vs top-down HINT traversal (pure interval queries).
	entries := make([]postings.Posting, len(ds.Coll.Objects))
	for i := range ds.Coll.Objects {
		entries[i] = postings.Posting{ID: ds.Coll.Objects[i].ID, Interval: ds.Coll.Objects[i].Interval}
	}
	span, _ := ds.Coll.Span()
	hm := hint.EstimateM(ds.Coll.Objects, span, hint.DefaultCostModelConfig())
	dom, err := domain.Make(span.Start, span.End, hm)
	if err != nil {
		// lint:panic-ok benchmark harness; the span is valid by construction
		panic(err)
	}
	h := hint.Build(dom, entries)
	t = Table{
		Title:  fmt.Sprintf("Ablation 2: HINT traversal (m=%d), range queries [%s]", hm, ds.Name),
		Header: []string{"traversal", "throughput [q/s]"},
	}
	rngQueries := queries
	t.Add("bottom-up (paper)", f0(rangeThroughput(func(q model.Interval, dst []model.ObjectID) []model.ObjectID {
		return h.RangeQuery(q, dst)
	}, rngQueries)))
	t.Add("top-down (naive)", f0(rangeThroughput(func(q model.Interval, dst []model.ObjectID) []model.ObjectID {
		return h.RangeQueryTopDown(q, dst)
	}, rngQueries)))
	t.Fprint(cfg.Out)

	// (5) HINT vs the classic interval tree vs a full scan (Section 6.2's
	// baseline), on the same interval set and queries.
	appendIntervalTreeAblation(cfg, ds, queries, h)

	// (3) Reference-value vs hash de-duplication in tIF+Slicing.
	sl := slicing.New(ds.Coll)
	t = Table{
		Title:  "Ablation 3: tIF+Slicing de-duplication [" + ds.Name + "]",
		Header: []string{"method", "throughput [q/s]"},
	}
	t.Add("reference value (paper)", f0(Throughput(sl, queries)))
	t.Add("hash set", f0(Throughput(queryFunc(sl.QueryHashDedup), queries)))
	t.Fprint(cfg.Out)

	// (4) Compression.
	plain := tif.New(ds.Coll)
	packed := compress.NewTIF(ds.Coll)
	t = Table{
		Title:  "Ablation 4: inverted-file compression [" + ds.Name + "]",
		Header: []string{"layout", "throughput [q/s]", "size [MB]"},
	}
	t.Add("plain tIF", f0(Throughput(plain, queries)), f1(float64(plain.SizeBytes())/(1<<20)))
	t.Add("gap-encoded tIF", f0(Throughput(queryOnly{packed}, queries)), f1(float64(packed.SizeBytes())/(1<<20)))
	t.Fprint(cfg.Out)
}

// equivalenceBroken is the row RunVerify prints under an index that
// disagreed with the oracle on at least one query.
const equivalenceBroken = "!! EQUIVALENCE BROKEN !!"

// RunVerify cross-checks every index against the brute-force oracle on
// fresh workloads at the configured scale — the result-equivalence
// invariant behind all throughput comparisons, promoted to a runnable
// experiment so a user can confirm it on their own parameters before
// trusting any benchmark numbers.
func RunVerify(cfg Config) {
	cfg = cfg.Normalize()
	methods := append([]temporalir.Method{temporalir.TIF}, temporalir.Methods()...)
	for _, ds := range RealDatasets(cfg) {
		queries := defaultWorkload(ds.Coll, cfg)
		queries = append(queries, gen.MixedPool(ds.Coll, cfg.NumQueries, cfg.Seed+901)...)
		oracle := bruteforce.New(ds.Coll)
		want := make([][]model.ObjectID, len(queries))
		for i, q := range queries {
			want[i] = canonIDs(oracle.Query(q))
		}
		t := Table{
			Title:  "Verification: result equivalence vs brute force [" + ds.Name + "]",
			Header: []string{"index", "queries", "mismatches"},
		}
		for _, m := range methods {
			ix, _ := MeasureBuild(m, ds.Coll, temporalir.Options{})
			mismatches := 0
			for i, q := range queries {
				if !model.EqualIDs(canonIDs(ix.Query(q)), want[i]) {
					mismatches++
				}
			}
			t.Add(shortName(m), fmt.Sprint(len(queries)), fmt.Sprint(mismatches))
			if mismatches > 0 {
				t.Add("", "", equivalenceBroken)
			}
		}
		t.Fprint(cfg.Out)
	}
}

func canonIDs(ids []model.ObjectID) []model.ObjectID {
	out := append([]model.ObjectID(nil), ids...)
	model.SortIDs(out)
	return model.DedupIDs(out)
}

// rangeThroughput measures pure interval-query throughput.
func rangeThroughput(query func(model.Interval, []model.ObjectID) []model.ObjectID, queries []model.Query) float64 {
	const minDuration = 20 * time.Millisecond
	var dst []model.ObjectID
	ran := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		for _, q := range queries {
			dst = query(q.Interval, dst[:0])
			ran++
		}
	}
	return float64(ran) / time.Since(start).Seconds()
}

// queryFunc adapts a Query method to the Index interface for Throughput.
type queryFunc func(model.Query) []model.ObjectID

func (f queryFunc) Query(q model.Query) []model.ObjectID { return f(q) }
func (f queryFunc) Insert(model.Object)                  {}
func (f queryFunc) Delete(model.Object)                  {}
func (f queryFunc) Len() int                             { return 0 }
func (f queryFunc) SizeBytes() int64                     { return 0 }

// queryOnly adapts the static compressed index.
type queryOnly struct{ ix *compress.TIF }

func (a queryOnly) Query(q model.Query) []model.ObjectID { return a.ix.Query(q) }
func (a queryOnly) Insert(model.Object)                  {}
func (a queryOnly) Delete(model.Object)                  {}
func (a queryOnly) Len() int                             { return a.ix.Len() }
func (a queryOnly) SizeBytes() int64                     { return a.ix.SizeBytes() }
