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
	allocbudget.Gate(t, "postings/List.IntersectIDs", func() { dst = l.intersectIDs(cands, dst[:0]) })
	allocbudget.Gate(t, "postings/IntersectSortedIDs", func() { dst = IntersectSortedIDs(cands, other, dst[:0]) })

	// The bitmap container: steady state compacts entirely inside a
	// reused word slice.
	var bb Bitmap
	bb.SetSorted(other)
	buf := make([]model.ObjectID, 0, len(cands))
	allocbudget.Gate(t, "postings/Bitmap.KeepSorted", func() { buf = bb.KeepSorted(buf[:0], cands) })

	small := cands[:min(64, len(cands))]
	allocbudget.Gate(t, "postings/IntersectGalloping", func() { dst = intersectGalloping(small, other, dst[:0]) })

	// The later-element kernel: a pooled pass over four fragments, one
	// positional and one bitmap, allocates nothing once warm.
	frags := []List{l[:len(l)/4], l[len(l)/4 : len(l)/2], l[len(l)/2 : 3*len(l)/4], l[3*len(l)/4:]}
	allocbudget.Gate(t, "postings/Later", func() {
		k := GetLater()
		for _, sorted := range []bool{true, false} {
			k.Begin(cands, sorted)
			for _, f := range frags {
				Mark(k, f)
			}
			dst = k.Keep(dst[:0])
		}
		PutLater(k)
	})
}

// TestAllocBudgetDispatch pins the container-aware dispatch kernels and
// the temporal filter: with a reused dst each is allocation-free once
// warmed up. `make benchmem` re-records.
func TestAllocBudgetDispatch(t *testing.T) {
	l, cands := benchLists(10_000)
	small := cands[:min(64, len(cands))]

	var dst []model.ObjectID
	allocbudget.Gate(t, "postings/IntersectAnySorted", func() { dst = IntersectAnySorted(small, cands, dst[:0]) })
	allocbudget.Gate(t, "postings/List.IntersectAny", func() { dst = l.IntersectAny(small, dst[:0]) })
	q := model.Interval{Start: 1 << 18, End: 1 << 19}
	allocbudget.Gate(t, "postings/List.TemporalFilter", func() { dst = l.TemporalFilter(q, dst[:0]) })
}
