package tifhint

import (
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// TestParallelBuildDeterministic: pass 2 cuts the elements' hierarchies on
// the shared pool, longest run first, so which goroutine cuts which element
// changes from build to build. A build on a one-worker pool and one on a
// four-worker pool must be equal in every element's levels, directories and
// divisions (and the hybrid's slices), and answer every query alike.
func TestParallelBuildDeterministic(t *testing.T) {
	for _, in := range testutil.ParallelBuildInputs() {
		for _, opts := range [][]Option{nil, {WithM(9)}} {
			one, four := testutil.SerialAndParallel(t, func() variants { return bulkBuilt(in.Coll, opts...) })
			for name, pair := range map[string][2]any{"binary": {one.bin, four.bin}, "merge": {one.mrg, four.mrg}, "hybrid": {one.hyb, four.hyb}} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Errorf("%s (%d options): %s built on four workers differs from the one-worker build", in.Name, len(opts), name)
				}
			}
			if a, b := one.digests(in.Queries), four.digests(in.Queries); a != b {
				t.Errorf("%s (%d options): query digests %v on one worker, %v on four", in.Name, len(opts), a, b)
			}
		}
	}
}
