// Benchmarks regenerating the paper's evaluation artifacts.
//
// Two layers:
//
//   - Benchmark<Method>/... micro-benchmarks: per-index query cost on the
//     ECLOG stand-in under the paper's default workload (0.1% extent,
//     |q.d| = 3). These are the per-cell numbers behind Figure 11;
//     1/ns-per-op is the throughput the figures plot.
//   - BenchmarkFig*/BenchmarkTable* experiment benchmarks: each runs the
//     corresponding internal/bench driver end-to-end at a laptop scale
//     (build + sweep + measure), so `go test -bench=.` reproduces every
//     table and figure. Full-scale runs go through cmd/irbench -scale 1.
package temporalir_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	temporalir "repro"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/model"
)

// benchScale keeps `go test -bench=.` minutes-sized; cmd/irbench scales up.
const benchScale = 0.005

var setupOnce sync.Once
var benchColl *model.Collection
var benchQueries []model.Query
var benchIndices map[temporalir.Method]temporalir.Index

func setup() {
	setupOnce.Do(func() {
		benchColl = gen.ECLOGLike(gen.RealConfig{Scale: benchScale, Seed: 7})
		benchQueries = gen.Workload(benchColl, gen.DefaultQueryConfig(), 512, 11)
		benchIndices = make(map[temporalir.Method]temporalir.Index)
		for _, m := range append(temporalir.Methods(), temporalir.TIF) {
			ix, err := temporalir.NewIndex(m, benchColl, temporalir.Options{})
			if err != nil {
				panic(err)
			}
			benchIndices[m] = ix
		}
	})
}

func benchQuery(b *testing.B, m temporalir.Method) {
	setup()
	ix := benchIndices[m]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Query(benchQueries[i%len(benchQueries)])
	}
}

func BenchmarkQueryTIF(b *testing.B)            { benchQuery(b, temporalir.TIF) }
func BenchmarkQueryTIFSlicing(b *testing.B)     { benchQuery(b, temporalir.TIFSlicing) }
func BenchmarkQueryTIFSharding(b *testing.B)    { benchQuery(b, temporalir.TIFSharding) }
func BenchmarkQueryTIFHintBinary(b *testing.B)  { benchQuery(b, temporalir.TIFHintBinary) }
func BenchmarkQueryTIFHintMerge(b *testing.B)   { benchQuery(b, temporalir.TIFHintMerge) }
func BenchmarkQueryTIFHintSlicing(b *testing.B) { benchQuery(b, temporalir.TIFHintSlicing) }
func BenchmarkQueryIRHintPerf(b *testing.B)     { benchQuery(b, temporalir.IRHintPerf) }
func BenchmarkQueryIRHintSize(b *testing.B)     { benchQuery(b, temporalir.IRHintSize) }

// BenchmarkSearchMethods is a read loop of the benchmark's lib_methods
// shape, for CPU profiles of the engine's whole read path: a synthetic
// corpus at scale 0.03, one query list alternating default-shape and
// gen.MixedPool queries, each issued through Engine.Search to all nine
// methods in turn. One op is one list through every method.
func BenchmarkSearchMethods(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.03))
	shaped := gen.Workload(c, gen.DefaultQueryConfig(), 256, 2)
	mixed := gen.MixedPool(c, 256, 3)
	type search struct {
		iv    model.Interval
		terms []string
	}
	list := make([]search, 0, len(shaped)+len(mixed))
	for i := range shaped {
		for _, q := range []model.Query{shaped[i], mixed[i]} {
			terms := make([]string, len(q.Elems))
			for j, e := range q.Elems {
				terms[j] = fmt.Sprintf("e%d", e)
			}
			list = append(list, search{q.Interval, terms})
		}
	}
	var engines []*temporalir.Engine
	for _, m := range append(append(temporalir.Methods(), temporalir.TIF), temporalir.Routed) {
		e, err := temporalir.EngineFromCollection(c, m, temporalir.Options{})
		if err != nil {
			b.Fatal(err)
		}
		engines = append(engines, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range engines {
			for _, s := range list {
				_ = e.Search(s.iv.Start, s.iv.End, s.terms...)
			}
		}
	}
}

// BenchmarkSearchPoint is a read loop of the benchmark's lib_point shape,
// for CPU profiles of the paper's headline method: a synthetic corpus at
// scale 0.1, default-shape queries, each issued through Engine.Search to
// an irHINT-perf engine. One op is one search.
func BenchmarkSearchPoint(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.1))
	qs := gen.Workload(c, gen.DefaultQueryConfig(), 1024, 2)
	terms := make([][]string, len(qs))
	for i, q := range qs {
		for _, e := range q.Elems {
			terms[i] = append(terms[i], fmt.Sprintf("e%d", e))
		}
	}
	e, err := temporalir.EngineFromCollection(c, temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		_ = e.Search(q.Interval.Start, q.Interval.End, terms[i%len(qs)]...)
	}
}

// BenchmarkSearchTopK is a ranked read loop over engines of 1 and 4
// stores: the BenchmarkSearchPoint corpus and queries, each issued
// through Engine.SearchTopKCtx with k = 10 to an irHINT-perf engine whose
// memtables hold 1 024 uncompacted inserts (copies of corpus objects),
// so per-query work that grows with the memtable shows. One op is one
// ranked search.
func BenchmarkSearchTopK(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.1))
	qs := gen.Workload(c, gen.DefaultQueryConfig(), 1024, 2)
	terms := func(elems []model.ElemID) []string {
		out := make([]string, len(elems))
		for j, e := range elems {
			out[j] = fmt.Sprintf("e%d", e)
		}
		return out
	}
	qterms := make([][]string, len(qs))
	for i := range qs {
		qterms[i] = terms(qs[i].Elems)
	}
	for _, stores := range []int{1, 4} {
		b.Run(fmt.Sprintf("stores%d", stores), func(b *testing.B) {
			e, err := temporalir.EngineFromCollectionN(c, temporalir.IRHintPerf, temporalir.Options{}, stores)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1024; i++ {
				o := &c.Objects[(i*97)%len(c.Objects)]
				e.Insert(o.Interval.Start, o.Interval.End, terms(o.Elems)...)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &qs[i%len(qs)]
				if _, err := e.SearchTopKCtx(ctx, q.Interval.Start, q.Interval.End, 10, qterms[i%len(qs)]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Build-cost micro-benchmarks (the Table 5 "time" column per iteration).
func benchBuild(b *testing.B, m temporalir.Method) {
	setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := temporalir.NewIndex(m, benchColl, temporalir.Options{})
		if err != nil {
			b.Fatal(err)
		}
		_ = ix.Len()
	}
}

func BenchmarkBuildTIFSlicing(b *testing.B)   { benchBuild(b, temporalir.TIFSlicing) }
func BenchmarkBuildTIFSharding(b *testing.B)  { benchBuild(b, temporalir.TIFSharding) }
func BenchmarkBuildTIFHintMerge(b *testing.B) { benchBuild(b, temporalir.TIFHintMerge) }
func BenchmarkBuildIRHintPerf(b *testing.B)   { benchBuild(b, temporalir.IRHintPerf) }
func BenchmarkBuildIRHintSize(b *testing.B)   { benchBuild(b, temporalir.IRHintSize) }

// Experiment benchmarks: one full driver run per iteration.
func benchExperiment(b *testing.B, name string, scale float64, queries int) {
	exp, ok := bench.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	cfg := bench.Config{Scale: scale, NumQueries: queries, Seed: 3, Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Run(cfg)
	}
}

func BenchmarkTable3Stats(b *testing.B)       { benchExperiment(b, "table3", benchScale, 64) }
func BenchmarkFig8SlicingTuning(b *testing.B) { benchExperiment(b, "fig8", 0.002, 64) }
func BenchmarkFig9HintTuning(b *testing.B)    { benchExperiment(b, "fig9", 0.002, 64) }
func BenchmarkFig10TifHintVariants(b *testing.B) {
	benchExperiment(b, "fig10", 0.002, 64)
}
func BenchmarkTable5IndexingCosts(b *testing.B) { benchExperiment(b, "table5", 0.002, 64) }
func BenchmarkFig11RealData(b *testing.B)       { benchExperiment(b, "fig11", 0.002, 64) }
func BenchmarkFig12Synthetic(b *testing.B)      { benchExperiment(b, "fig12", 0.001, 32) }
func BenchmarkTable6Insertions(b *testing.B)    { benchExperiment(b, "table6", 0.002, 32) }
func BenchmarkTable7Deletions(b *testing.B)     { benchExperiment(b, "table7", 0.002, 32) }
func BenchmarkAblations(b *testing.B)           { benchExperiment(b, "ablation", 0.002, 64) }
