package temporalir_test

import (
	"testing"

	temporalir "repro"
	"repro/internal/domain"
	"repro/internal/gen"
	"repro/internal/hint"
)

// TestOneFanOutPerQuery pins that no query is split across the worker
// pool: the batch rows and the shard scatter are the only fan-outs. Over
// wide queries that span many HINT partitions, a 4-shard search costs at
// most its scatter's one pool map, and a one-row batch on an Engine
// costs none, for every HINT-backed method.
func TestOneFanOutPerQuery(t *testing.T) {
	const m = 8
	coll := gen.Synthetic(gen.SyntheticConfig{
		Cardinality: 4000, DomainSize: 1 << 20, Sigma: 1 << 18, DictSize: 50, DescSize: 4, Seed: 34,
	}.Defaults(1))
	queries := gen.Workload(coll, gen.QueryConfig{ExtentFrac: 0.5, NumElems: 2}, 16, 35)
	span, _ := coll.Span()
	dom := domain.New(span.Start, span.End, m)
	for i, q := range queries {
		parts := 0
		hint.Visit(dom, q.Interval, func(lv hint.LevelVisit) { parts += int(lv.L-lv.F) + 1 })
		if parts < 8 {
			t.Fatalf("query %d spans %d relevant partitions, want at least 8", i, parts)
		}
	}
	b := temporalir.NewBuilder()
	for i := range coll.Objects {
		o := &coll.Objects[i]
		b.Add(o.Interval.Start, o.Interval.End, termsFor(o.Elems)...)
	}
	opts := temporalir.Options{M: m}
	for _, method := range []temporalir.Method{
		temporalir.TIFHintBinary, temporalir.TIFHintMerge, temporalir.TIFHintSlicing,
		temporalir.IRHintPerf, temporalir.IRHintSize,
	} {
		t.Run(string(method), func(t *testing.T) {
			sh, err := b.BuildSharded(method, opts, temporalir.ShardedOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			sh.SetParallelism(4)
			for i, q := range queries {
				if ids := sh.Search(q.Interval.Start, q.Interval.End, termsFor(q.Elems)...); len(ids) == 0 {
					t.Fatalf("sharded query %d: no result, the fan-out is untested", i)
				}
			}
			if got := sh.PoolStats().Maps; got > uint64(len(queries)) {
				t.Errorf("sharded: %d pool maps for %d searches, want at most one each (the scatter)", got, len(queries))
			}

			eng, err := temporalir.EngineFromCollection(coll, method, opts)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetParallelism(4)
			for i := range queries {
				if rows := eng.SearchBatch(queries[i : i+1]); len(rows[0].IDs) == 0 {
					t.Fatalf("batch query %d: no result, the fan-out is untested", i)
				}
			}
			if got := eng.PoolStats().Maps; got != 0 {
				t.Errorf("engine: %d pool maps for %d one-row batches, want 0", got, len(queries))
			}
		})
	}
}
