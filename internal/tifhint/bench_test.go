package tifhint

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// BenchmarkBuild times the bulk build of the three variants over the
// scale-0.03 synthetic corpus (30k objects — the benchmark's lib_methods
// input), so the kernel under compact_ms and setup_s there can be checked
// in seconds: `go test -run '^$' -bench Build -benchtime 5x ./internal/tifhint`.
// B/object is the built index's SizeBytes per object.
func BenchmarkBuild(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.03))
	for _, v := range builders {
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
