package route

import (
	"testing"
	"time"

	"repro/internal/allocbudget"
)

// TestAllocBudget pins the router's per-query decision path at zero
// allocations: feature bucketing, the cost-table argmin and the EWMA
// observation are all atomics over pre-sized slices. `make benchmem`
// re-records.
func TestAllocBudget(t *testing.T) {
	names := []string{"tif", "tif+hint/merge", "tif+hint+slicing", "irhint/perf"}
	classes := []Class{ClassTIF, ClassMerge, ClassHybrid, ClassPerf}
	r := New(names, classes)

	f := Features{ExtentFrac: 0.001, NumElems: 3, MinFreqFrac: 0.005}
	allocbudget.Gate(t, "route/Router.Choose", func() { _ = r.Choose(f) })

	i := 0
	allocbudget.Gate(t, "route/Router.Observe", func() {
		r.Observe(i%len(names), f, time.Duration(i)*time.Nanosecond)
		i++
	})
}
