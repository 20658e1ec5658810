package maint

import (
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
)

// TestAllocBudget pins the write path's per-insert allocations: one
// Append builds and publishes the next generation, and the amortized
// growth of the backing object and id tables rides along. `make
// benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	s := newTestStore(t, 64)
	iv := model.NewInterval(10, 20)
	elems := []model.ElemID{0, 2}
	allocbudget.Gate(t, "maint/Store.Append", func() { s.Append(iv, elems, 4) })
}
