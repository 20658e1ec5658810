package temporalir_test

import (
	"context"
	"testing"

	temporalir "repro"
	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/hint"
	"repro/internal/obs"
)

// TestOneFanOutPerQuery pins that no query is split across the worker
// pool: the batch rows and the shard scatter are the only fan-outs. Over
// wide queries that span many HINT partitions, a 4-shard search costs at
// most its scatter's one pool map, and a one-row batch or any search on
// a one-store engine costs none, for every HINT-backed method. It also
// pins that SetParallelism(0) hands every engine back the shared pool.
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
				if rows := eng.SearchBatchCtx(context.Background(), queries[i:i+1]); len(rows[0].IDs) == 0 {
					t.Fatalf("batch query %d: no result, the fan-out is untested", i)
				}
			}
			if got := eng.PoolStats().Maps; got != 0 {
				t.Errorf("engine: %d pool maps for %d one-row batches, want 0", got, len(queries))
			}

			// A one-store engine skips plan, scatter and merge: its
			// searches cost no pool map and record no scatter or merge
			// span, and an out-of-domain query reaches the store instead
			// of being pruned. The 4-store engine is the positive control.
			one, err := b.Build(method, opts)
			if err != nil {
				t.Fatal(err)
			}
			one.SetParallelism(4)
			for _, e := range []*temporalir.Engine{one, sh} {
				tr := obs.NewTrace("search")
				ctx := obs.ContextWithTrace(context.Background(), tr)
				for i, q := range queries {
					terms := termsFor(q.Elems)
					if ids := e.Search(q.Interval.Start, q.Interval.End, terms...); len(ids) == 0 {
						t.Fatalf("%d stores, query %d: no result", e.NumShards(), i)
					}
					if _, rep, err := e.SearchShardsCtx(ctx, q.Interval.Start, q.Interval.End, terms...); err != nil {
						t.Fatalf("%d stores, query %d: report %+v, err %v", e.NumShards(), i, rep, err)
					}
				}
				_, rep, _ := e.SearchShardsCtx(ctx, span.End+10, span.End+20, termsFor(queries[0].Elems)...)
				scatters := int64(0)
				for _, row := range tr.Summary().Stages {
					if row.Stage == obs.StageScatter.String() || row.Stage == obs.StageMerge.String() {
						scatters += row.Count
					}
				}
				if e == one {
					if got := e.PoolStats().Maps; got != 0 {
						t.Errorf("1 store: %d pool maps for %d searches, want 0", got, 2*len(queries))
					}
					if scatters != 0 {
						t.Errorf("1 store: %d scatter/merge spans, want 0", scatters)
					}
					if rep.Planned != 1 || rep.Pruned != 0 {
						t.Errorf("1 store: out-of-domain report %+v, want the store planned and nothing pruned", rep)
					}
				} else if scatters == 0 || rep.Pruned != 4 {
					t.Errorf("4 stores: %d scatter/merge spans and out-of-domain report %+v, want spans and 4 pruned", scatters, rep)
				}
			}

			// SetParallelism(n <= 0) restores the process-wide pool.
			sh.SetParallelism(0)
			one.SetParallelism(0)
			for _, e := range []*temporalir.Engine{sh, one} {
				if got, want := e.PoolStats(), exec.Default().Stats(); got != want {
					t.Errorf("%d stores after SetParallelism(0): pool stats %+v, want the process-wide pool's %+v", e.NumShards(), got, want)
				}
			}
		})
	}
}
