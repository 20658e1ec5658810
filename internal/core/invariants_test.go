//go:build invariants

package core

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

func TestSurvivorPoolAssertionFires(t *testing.T) {
	var bm postings.Bitmap
	bm.Reset(130)
	bm.Set(129)
	defer func() {
		if recover() == nil {
			t.Error("expected invariant panic, got none")
		}
	}()
	putSurvivors(&bm) // panics before pooling it
}

// TestDivisionAssertionFires breaks each rule of the division layout in
// turn, checked across the division (as after the bulk fill) and for the
// one run an insert touched.
func TestDivisionAssertionFires(t *testing.T) {
	ids := []model.ObjectID{1, 4, 7, 2, 3}
	spans := make([]model.Interval, len(ids))
	for _, tc := range []struct {
		name    string
		elems   []model.ElemID
		runs    []run
		touched int
	}{
		{"elements not ascending", []model.ElemID{5, 3}, []run{{0, 3, 3}, {3, 2, 2}}, -1},
		{"run not id-ascending", []model.ElemID{3, 5}, []run{{0, 4, 4}, {4, 1, 1}}, -1},
		{"more entries than room", []model.ElemID{3, 5}, []run{{0, 3, 2}, {3, 2, 2}}, -1},
		{"run past the arenas", []model.ElemID{3, 5}, []run{{0, 3, 3}, {3, 2, 3}}, -1},
		{"runs overlap", []model.ElemID{3, 5}, []run{{0, 3, 4}, {3, 2, 2}}, -1},
		{"runs out of element order", []model.ElemID{3, 5}, []run{{3, 2, 2}, {0, 3, 3}}, -1},
		{"touched run not id-ascending", []model.ElemID{3, 5}, []run{{0, 4, 4}, {4, 1, 1}}, 0},
		{"touched run past the arenas", []model.ElemID{3, 5}, []run{{0, 3, 3}, {3, 2, 3}}, 1},
		{"touched run overlaps", []model.ElemID{3, 5}, []run{{0, 3, 4}, {3, 2, 2}}, 0},
	} {
		d := divIF{elems: tc.elems, runs: tc.runs, ids: ids, spans: spans}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected invariant panic, got none", tc.name)
				}
			}()
			d.assertDivision("test", tc.touched)
		}()
	}
	// An insert may leave runs out of element order.
	ok := divIF{elems: []model.ElemID{3, 5}, runs: []run{{3, 2, 2}, {0, 3, 3}}, ids: ids, spans: spans}
	ok.assertDivision("test", 0)
	ok.assertDivision("test", 1)
}

// TestDenseAssertionFires clears the bit of a live entry of a dense
// element, which the check after the fill and the check after an insert of
// that object must both catch.
func TestDenseAssertionFires(t *testing.T) {
	c := testutil.RandomCollection(testutil.DefaultConfig(3))
	ix := NewPerf(c, WithM(4))
	e := ix.dense[0]
	i := slices.IndexFunc(c.Objects, func(o model.Object) bool { return slices.Contains(o.Elems, e) })
	o := c.Objects[i]
	ix.bitmaps[0].Unset(o.ID)
	for _, tc := range []struct {
		name string
		o    *model.Object
	}{{"after the fill", nil}, {"after an insert", &o}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected invariant panic, got none", tc.name)
				}
			}()
			ix.assertDense("test", tc.o)
		}()
	}
}
