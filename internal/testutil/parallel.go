package testutil

import (
	"math/rand"
	"reflect"
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
// id order, one whose element ids reach past DictSize, and a synthetic
// corpus of 12 000 objects, which a four-worker pass 1 splits (it assigns
// chunks of at least 4 096 objects, hint.assignChunk).
func ParallelBuildInputs() []BuildInput {
	synthetic := gen.Synthetic(gen.SyntheticConfig{Seed: 5}.Defaults(0.003))
	split := gen.Synthetic(gen.SyntheticConfig{Seed: 6}.Defaults(0.012))
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
		{"pass 1 split", split, gen.Workload(split, gen.DefaultQueryConfig(), 200, 7)},
	}
}

// SerialAndParallel runs build three times: on a one-worker process-wide
// pool, and on a two- and a four-worker one with GOMAXPROCS raised to
// match. It fails t unless the two parallel builds are deeply equal and
// the four-worker build borrowed a worker, and restores the pool and
// GOMAXPROCS before returning the one- and four-worker results.
func SerialAndParallel[T any](t *testing.T, build func() T) (serial, parallel T) {
	t.Helper()
	prev := exec.SetDefault(exec.NewPool(1))
	defer exec.SetDefault(prev)
	serial = build()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	exec.SetDefault(exec.NewPool(2))
	two := build()
	runtime.GOMAXPROCS(4)
	four := exec.NewPool(4)
	exec.SetDefault(four)
	parallel = build()
	if four.Stats().Helpers == 0 {
		t.Fatal("the four-worker build ran on one goroutine")
	}
	if !reflect.DeepEqual(two, parallel) {
		t.Error("the two-worker build differs from the four-worker build")
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
