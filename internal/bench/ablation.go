package bench

import (
	"fmt"

	temporalir "repro"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
)

// RunAblations sweeps the irHINT hierarchy depth m against the cost
// model's choice (the Section 5.2 tuning question, answered for the
// time-first index): throughput and size per m.
func RunAblations(cfg Config) {
	cfg = cfg.Normalize()
	ds := eclogOnly(cfg)
	queries := defaultWorkload(ds.Coll, cfg)

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
