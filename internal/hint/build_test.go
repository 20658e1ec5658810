package hint

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/domain"
	"repro/internal/exec"
	"repro/internal/model"
)

// TestAssignObjectsSameAtAnyWidth: pass 1 assigns contiguous chunks of the
// objects side by side and merges the chunks' runs by a radix sort whose
// stretches scatter side by side, so its run must not depend on how many
// goroutines the pool lends. On one and on four workers it must equal the
// reference — Assign per object in id order, then a stable sort by key —
// for 0 and 1 objects, on either side of a chunk boundary, for intervals
// at the domain's ends, and for key widths of one and of two radix passes;
// and every job handed to run beside it must have run.
func TestAssignObjectsSameAtAnyWidth(t *testing.T) {
	const lo, hi = 0, 1 << 20
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{4, 10, 16} {
		dom := domain.New(lo, hi, m)
		for _, n := range []int{0, 1, 2, assignChunk - 1, assignChunk + 1, 3*assignChunk + 5} {
			objs := make([]model.Object, n)
			for i, e := range randomEntries(rng, n, lo, hi) {
				objs[i] = model.Object{ID: model.ObjectID(i), Interval: e.Interval}
			}
			// The domain's ends, in the first, a middle and the last chunk.
			for k, iv := range []model.Interval{{Start: lo, End: hi}, {Start: lo, End: lo}, {Start: hi, End: hi}, {Start: lo, End: lo + 1}, {Start: hi - 1, End: hi}} {
				if n > 0 {
					objs[k*(n-1)/4].Interval = iv
				}
			}
			want := referenceRun(dom, objs)
			for _, workers := range []int{1, 4} {
				prev := exec.SetDefault(exec.NewPool(workers))
				procs := runtime.GOMAXPROCS(workers)
				ran := make([]bool, 5)
				got := AssignObjects(dom, objs, len(ran), func(i int) { ran[i] = true })
				runtime.GOMAXPROCS(procs)
				exec.SetDefault(prev)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("m = %d, %d objects, %d workers: run differs from the reference (%d assignments, want %d)", m, n, workers, len(got), len(want))
				}
				if slices.Contains(ran, false) {
					t.Errorf("m = %d, %d objects, %d workers: a job beside pass 1 did not run: %v", m, n, workers, ran)
				}
			}
		}
	}
}

// referenceRun is pass 1 done the obvious way.
func referenceRun(dom domain.Domain, objs []model.Object) []Assignment {
	run := []Assignment{}
	for i := range objs {
		Assign(dom, objs[i].Interval, func(level int, j uint32, original, _ bool) {
			key := (uint32(1)<<uint(level) + j) << 1
			if !original {
				key |= 1
			}
			run = append(run, Assignment{key, uint32(i)})
		})
	}
	slices.SortStableFunc(run, func(a, b Assignment) int { return cmp.Compare(a.Key, b.Key) })
	return run
}
