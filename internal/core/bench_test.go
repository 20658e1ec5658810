package core

import (
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
