package testutil

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
)

// BuildInput is one collection a parallel bulk build is checked on, with
// queries over it.
type BuildInput struct {
	Name    string
	Coll    *model.Collection
	Queries []model.Query
}

// ParallelBuildInputs are the collections whose builds must not depend on
// how many goroutines filled them: a synthetic corpus, a collection not in
// id order, and one whose element ids reach past DictSize.
func ParallelBuildInputs() []BuildInput {
	synthetic := gen.Synthetic(gen.SyntheticConfig{Seed: 5}.Defaults(0.003))
	cfg := DefaultConfig(41)
	cfg.N = 3000
	unordered := RandomCollection(cfg)
	rand.New(rand.NewSource(42)).Shuffle(len(unordered.Objects), func(i, j int) {
		unordered.Objects[i], unordered.Objects[j] = unordered.Objects[j], unordered.Objects[i]
	})
	pastDict := RandomCollection(cfg)
	pastDict.DictSize = 3
	return []BuildInput{
		{"synthetic", synthetic, gen.Workload(synthetic, gen.DefaultQueryConfig(), 200, 6)},
		{"unordered ids", unordered, RandomQueries(cfg, 200, 43)},
		{"ids past DictSize", pastDict, RandomQueries(cfg, 200, 44)},
	}
}

// SerialAndParallel runs build twice: on a one-worker process-wide pool,
// and on a four-worker one with GOMAXPROCS raised to four. It fails t
// unless the second build borrowed a worker, and restores the pool and
// GOMAXPROCS before returning both results.
func SerialAndParallel[T any](t *testing.T, build func() T) (serial, parallel T) {
	t.Helper()
	prev := exec.SetDefault(exec.NewPool(1))
	defer exec.SetDefault(prev)
	serial = build()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	four := exec.NewPool(4)
	exec.SetDefault(four)
	parallel = build()
	if four.Stats().Helpers == 0 {
		t.Fatal("the four-worker build ran on one goroutine")
	}
	return serial, parallel
}

// QueryDigest hashes ix's answers to queries.
func QueryDigest(ix model.Querier, queries []model.Query) string {
	results := make([][]model.ObjectID, len(queries))
	for i, q := range queries {
		results[i] = ix.Query(q)
	}
	return WorkloadChecksum(results)
}
