//go:build invariants

package postings

import (
	"testing"

	"repro/internal/model"
)

// mustPanic asserts fn panics — the invariants layer must abort loudly.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected invariant panic, got none", name)
		}
	}()
	fn()
}

func TestInvariantsCompiledIn(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("invariants tag set but InvariantsEnabled is false")
	}
}

func TestAssertionsFireOnUnsortedInputs(t *testing.T) {
	unsorted := []model.ObjectID{3, 1, 2}
	sorted := []model.ObjectID{1, 2, 3}
	mustPanic(t, "IntersectSortedIDs", func() {
		IntersectSortedIDs(unsorted, sorted, nil)
	})
	mustPanic(t, "Bitmap.SetSorted", func() {
		var b Bitmap
		b.SetSorted(unsorted)
	})
	mustPanic(t, "Bitmap.KeepSorted", func() {
		var b Bitmap
		b.Reset(4)
		for _, id := range unsorted {
			b.Set(id)
		}
		b.KeepSorted(nil, unsorted)
	})
	mustPanic(t, "List.intersectIDs", func() {
		l := List{{ID: 5}, {ID: 2}}
		l.intersectIDs(sorted, nil)
	})
}

func TestAssertionsPassOnSortedInputs(t *testing.T) {
	a := []model.ObjectID{1, 2, 3}
	b := []model.ObjectID{2, 3, 4}
	got := IntersectSortedIDs(a, b, nil)
	if !model.EqualIDs(got, []model.ObjectID{2, 3}) {
		t.Fatalf("IntersectSortedIDs = %v", got)
	}
	var bm Bitmap
	bm.SetSorted(a)
	if !bm.Contains(2) || bm.Contains(9) {
		t.Fatal("Bitmap.SetSorted misbehaves under invariants")
	}
}
