package core

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
)

// TestParallelBuildDeterministic: pass 2 fills the divisions on the shared
// pool, largest first, so which goroutine fills which division changes from
// build to build. A build on a one-worker pool and one on a four-worker pool
// must be equal in every level, directory, division and list, and answer
// every query alike.
func TestParallelBuildDeterministic(t *testing.T) {
	type built struct {
		perf *PerfIndex
		size *SizeIndex
	}
	for _, in := range testutil.ParallelBuildInputs() {
		for _, opts := range [][]Option{nil, {WithM(9)}} {
			one, four := testutil.SerialAndParallel(t, func() built {
				return built{NewPerf(in.Coll, opts...), NewSize(in.Coll, opts...)}
			})
			if !reflect.DeepEqual(one.perf, four.perf) {
				t.Errorf("%s (m = %d): perf built on four workers differs from the one-worker build", in.Name, one.perf.M())
			}
			if !reflect.DeepEqual(one.size, four.size) {
				t.Errorf("%s (m = %d): size built on four workers differs from the one-worker build", in.Name, one.size.M())
			}
			for name, pair := range map[string][2]model.Querier{"perf": {one.perf, four.perf}, "size": {one.size, four.size}} {
				if a, b := testutil.QueryDigest(pair[0], in.Queries), testutil.QueryDigest(pair[1], in.Queries); a != b {
					t.Errorf("%s: %s query digest %s on one worker, %s on four", in.Name, name, a, b)
				}
			}
		}
	}
}
