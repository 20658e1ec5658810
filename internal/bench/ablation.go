package bench

import (
	"fmt"
	"runtime"
	"slices"

	temporalir "repro"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
)

// ablationRounds is how many times RunAblations times each m.
const ablationRounds = 5

// RunAblations sweeps the irHINT hierarchy depth m against the cost
// model's choice (the Section 5.2 tuning question, answered for the
// time-first index): throughput and size per m. Each m is timed in
// ablationRounds rounds, each round starting one m later and each pass
// after a collection, so neither heap state nor position favours an m;
// the table gives the median and the min–max.
func RunAblations(cfg Config) {
	cfg = cfg.Normalize()
	ds := eclogOnly(cfg)
	queries := defaultWorkload(ds.Coll, cfg)

	auto := core.NewPerf(ds.Coll)
	ms := []int{2, 4, 6, 8, 10, 12}
	if !slices.Contains(ms, auto.M()) {
		ms = append(ms, auto.M())
	}
	ixs := make([]temporalir.Index, len(ms))
	for i, m := range ms {
		ixs[i] = auto
		if m != auto.M() {
			ixs[i] = core.NewPerf(ds.Coll, core.WithM(m))
		}
	}
	qps := make([][]float64, len(ms))
	for r := 0; r < ablationRounds*len(ms); r++ {
		i := (r + r/len(ms)) % len(ms)
		runtime.GC()
		qps[i] = append(qps[i], Throughput(ixs[i], queries))
	}

	t := Table{
		Title:  "Ablation 1: irHINT (perf) hierarchy depth m [" + ds.Name + "]",
		Header: []string{"m", "median [q/s]", "min-max [q/s]", "size [MB]"},
	}
	for i, m := range ms {
		label := fmt.Sprint(m)
		if m == auto.M() {
			label += " (cost model)"
		}
		q := qps[i]
		slices.Sort(q)
		t.Add(label, f0(q[len(q)/2]), f0(q[0])+"-"+f0(q[len(q)-1]), f1(float64(ixs[i].SizeBytes())/(1<<20)))
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
