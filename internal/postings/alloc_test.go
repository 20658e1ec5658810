package postings

import (
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
)

// TestAllocBudget pins the steady-state allocation behavior of the
// annotated intersection kernels: with a reused dst buffer both merges
// must be allocation-free once warmed up. `make benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	l, cands := benchLists(10_000)
	other := make([]model.ObjectID, 0, len(l)/2)
	for i := 0; i < len(l); i += 2 {
		other = append(other, l[i].ID)
	}

	var dst []model.ObjectID
	allocbudget.Gate(t, "postings/List.IntersectIDs", func() { dst = l.IntersectIDs(cands, dst[:0]) })
	allocbudget.Gate(t, "postings/IntersectSortedIDs", func() { dst = IntersectSortedIDs(cands, other, dst[:0]) })

	// The bitmap container kernels: steady state marks, intersects and
	// compacts entirely inside pooled word slices.
	var ba, bb Bitmap
	ba.SetSorted(cands)
	bb.SetSorted(other)
	allocbudget.Gate(t, "postings/Bitmap.And", func() {
		ba.SetSorted(cands)
		ba.And(&bb)
	})
	allocbudget.Gate(t, "postings/Bitmap.Or", func() {
		ba.SetSorted(cands)
		ba.Or(&bb)
	})

	buf := append([]model.ObjectID(nil), cands...)
	allocbudget.Gate(t, "postings/Bitmap.KeepSorted", func() {
		copy(buf[:cap(buf)], cands)
		_ = bb.KeepSorted(buf[:len(cands)])
	})

	small := cands[:min(64, len(cands))]
	allocbudget.Gate(t, "postings/IntersectGalloping", func() { dst = IntersectGalloping(small, other, dst[:0]) })
}
