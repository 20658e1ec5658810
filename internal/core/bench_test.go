package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// BenchmarkBuild times the bulk build of both variants over the scale-0.1
// synthetic corpus (100k objects — the benchmark's lib_point input), so the
// kernel under compact_ms, setup_s and persist.load_ms can be checked in
// seconds: `go test -run '^$' -bench Build -benchtime 5x ./internal/core`.
// B/object is the built index's SizeBytes per object.
func BenchmarkBuild(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.1))
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var ix model.Index
			for i := 0; i < b.N; i++ {
				ix = v.build(c)
			}
			size := ix.(interface{ SizeBytes() int64 }).SizeBytes()
			b.ReportMetric(float64(size)/float64(len(c.Objects)), "B/object")
		})
	}
}

// BenchmarkInsertAfterBulk times irHINT-perf's index-level Insert onto a
// bulk-built index (Table 6's case): batches of 1 % of the scale-0.1
// synthetic corpus, objects that repeat stored objects' intervals and
// elements under fresh ids, each batch onto a fresh bulk build, outside the
// timer. One op is one insert: `go test -run '^$' -bench InsertAfterBulk
// ./internal/core`.
func BenchmarkInsertAfterBulk(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.1))
	batch := make([]model.Object, len(c.Objects)/100)
	for i := range batch {
		batch[i] = c.Objects[i*100]
		batch[i].ID = model.ObjectID(len(c.Objects) + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		ix := NewPerf(c)
		b.StartTimer()
		for _, o := range batch[:min(len(batch), b.N-done)] {
			ix.Insert(o)
			done++
		}
	}
}

// BenchmarkPerfQuery times irHINT-perf queries of the paper's default
// shape (0.1 % extent, three elements drawn from a seed object) over the
// scale-0.1 synthetic corpus, the benchmark's lib_point input: "bitmaps" as
// built, where dense later elements are bit tests, and "lists" on the same
// divisions with the bitmaps withheld, every later element a list merge.
// One op is one query: `go test -run '^$' -bench PerfQuery ./internal/core`.
func BenchmarkPerfQuery(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.1))
	queries := gen.Workload(c, gen.DefaultQueryConfig(), 4096, 1)
	ix := NewPerf(c)
	lists := *ix
	lists.dense, lists.bitmaps = nil, nil
	for _, v := range []struct {
		name string
		ix   *PerfIndex
	}{{"bitmaps", ix}, {"lists", &lists}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.ix.Query(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkElemSet times the two ways elemSet.sorted produces a division's
// element directory, for k distinct elements spread uniformly over a
// span of words·64 ids: reading the bitset's words (scan) and sorting the
// elements met (sort). words is the rule's boundary, scanPerSort·k·log2(k),
// times 1/4, 1 and 4: scan should win below the boundary and sort above.
func BenchmarkElemSet(b *testing.B) {
	for _, k := range []int{2, 8, 32, 128, 512, 2048} {
		for _, f := range []float64{0.25, 1, 4} {
			words := max(1, int(f*float64(scanPerSort*k*bits.Len(uint(k)))))
			rng := rand.New(rand.NewSource(1))
			ids := rng.Perm(words * 64)[:min(k, words*64)]
			s := newElemSet(words * 64)
			out := make([]model.ElemID, len(ids))
			for _, path := range []string{"scan", "sort"} {
				b.Run(fmt.Sprintf("k=%d/words=%d/%s", k, words, path), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for _, e := range ids {
							s.add(model.ElemID(e))
						}
						if path == "scan" {
							s.scan(out)
						} else {
							s.sort(out)
						}
						s.met, s.lo, s.hi = s.met[:0], math.MaxUint32, 0
					}
				})
			}
		}
	}
}
