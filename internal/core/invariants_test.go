//go:build invariants

package core

import (
	"slices"
	"testing"

	"repro/internal/domain"
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
// one run an insert touched, then misfiles an entry in each part.
func TestDivisionAssertionFires(t *testing.T) {
	ids := []model.ObjectID{1, 4, 7, 2, 3}
	ends := make([]model.Timestamp, len(ids))
	for _, tc := range []struct {
		name    string
		elems   []model.ElemID
		runs    []run
		rooms   []room
		starts  int // starts in the column; the division is an originals one if > 0
		touched int
	}{
		{"elements not ascending", []model.ElemID{5, 3}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, nil, 0, -1},
		{"run not id-ascending", []model.ElemID{3, 5}, []run{{0, 4, 4, 0}, {4, 1, 1, 4}}, nil, 0, -1},
		{"aft part not id-ascending", []model.ElemID{3}, []run{{0, 5, 2, 0}}, nil, 0, -1},
		{"in part longer than the run", []model.ElemID{3, 5}, []run{{0, 3, 4, 0}, {3, 2, 0, 3}}, nil, 0, -1},
		{"more entries than room", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, []room{{2, 0}, {2, 0}}, 0, -1},
		{"run past the columns", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, []room{{3, 0}, {3, 0}}, 0, -1},
		{"ends past their column", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 4}}, nil, 0, -1},
		{"runs overlap", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, []room{{4, 0}, {2, 0}}, 0, -1},
		{"ends overlap", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 2}}, nil, 0, -1},
		{"runs out of element order", []model.ElemID{3, 5}, []run{{3, 2, 2, 3}, {0, 3, 3, 0}}, nil, 0, -1},
		{"rooms not one per run", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, []room{{3, 0}}, 0, -1},
		{"starts short of the ids", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, nil, 4, -1},
		{"touched run not id-ascending", []model.ElemID{3, 5}, []run{{0, 4, 4, 0}, {4, 1, 1, 4}}, nil, 0, 0},
		{"touched run past the columns", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, []room{{3, 0}, {3, 0}}, 0, 1},
		{"touched run overlaps", []model.ElemID{3, 5}, []run{{0, 3, 3, 0}, {3, 2, 2, 3}}, []room{{4, 0}, {2, 0}}, 0, 0},
	} {
		d := divIF{elems: tc.elems, runs: tc.runs, rooms: tc.rooms, ids: ids, starts: make([]model.Timestamp, tc.starts), ends: ends}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected invariant panic, got none", tc.name)
				}
			}()
			d.assertDivision("test", tc.touched, tc.starts > 0, nil)
		}()
	}
	// An insert may leave runs out of element order; each part is sorted
	// apart from the other.
	ok := divIF{elems: []model.ElemID{3, 5}, runs: []run{{3, 2, 2, 3}, {0, 3, 3, 0}}, ids: ids, ends: ends}
	ok.assertDivision("test", 0, false, nil)
	ok.assertDivision("test", 1, false, nil)
	split := divIF{elems: []model.ElemID{3}, runs: []run{{0, 5, 3, 0}}, ids: ids, starts: make([]model.Timestamp, len(ids)), ends: ends}
	split.assertDivision("test", -1, true, nil)
	checkPlacementAssertions(t)
}

// placedDivisions returns an originals division of partition 0 of level 1
// and a replicas division of partition 1 of level 2, on a domain of four
// cells of four timestamps each, with every entry in its right part, and
// the objects as a home.obj knows them, all live.
func placedDivisions() (dom domain.Domain, o, r *divIF, objs map[model.ObjectID]model.Interval) {
	dom = domain.New(0, 15, 2)
	objs = map[model.ObjectID]model.Interval{
		1: model.NewInterval(1, 6), 4: model.NewInterval(2, 9), 7: model.NewInterval(5, 7), // O_in, O_aft, O_in of 1/0
		2: model.NewInterval(1, 6), 3: model.NewInterval(2, 9), 6: model.NewInterval(0, 12), // R_in, R_aft, R_aft of 2/1
	}
	o = &divIF{elems: []model.ElemID{3}, runs: []run{{0, 3, 2, 0}}, ids: []model.ObjectID{1, 7, 4}, starts: []model.Timestamp{1, 5, 2}, ends: []model.Timestamp{6, 7}}
	r = &divIF{elems: []model.ElemID{3}, runs: []run{{0, 3, 1, 0}}, ids: []model.ObjectID{2, 3, 6}, ends: []model.Timestamp{6}}
	return dom, o, r, objs
}

// checkPlacementAssertions plants one misfiled entry in each of the four
// parts, and a deleted object in an R_aft run: the check against the
// division's home must catch each, from the endpoints the part stores or
// from the object's interval where the home knows it.
func checkPlacementAssertions(t *testing.T) {
	t.Helper()
	homeOf := func(dom domain.Domain, level int, j uint32, objs map[model.ObjectID]model.Interval, deleted model.ObjectID) *home {
		return &home{dom: dom, level: level, j: j, obj: func(id model.ObjectID) (model.Interval, bool, bool) {
			iv, ok := objs[id]
			return iv, id != deleted, ok
		}}
	}
	dom, o, r, objs := placedDivisions()
	o.assertDivision("test", -1, true, homeOf(dom, 1, 0, objs, 0))
	r.assertDivision("test", -1, false, homeOf(dom, 2, 1, objs, 0))
	for _, tc := range []struct {
		name  string
		plant func(o, r *divIF, objs map[model.ObjectID]model.Interval) (deleted model.ObjectID)
		orig  bool
	}{
		{"O_in entry ending after the partition", func(o, _ *divIF, _ map[model.ObjectID]model.Interval) model.ObjectID {
			o.ends[1] = 12
			return 0
		}, true},
		{"O_aft entry ending inside", func(_, _ *divIF, objs map[model.ObjectID]model.Interval) model.ObjectID {
			objs[4] = model.NewInterval(2, 5)
			return 0
		}, true},
		{"O_aft entry starting outside", func(o, _ *divIF, objs map[model.ObjectID]model.Interval) model.ObjectID {
			delete(objs, 4)
			o.starts[2] = 9
			return 0
		}, true},
		{"R_in entry ending after the partition", func(_, r *divIF, objs map[model.ObjectID]model.Interval) model.ObjectID {
			delete(objs, 2)
			r.ends[0] = 10
			return 0
		}, false},
		{"R_aft entry ending inside", func(_, _ *divIF, objs map[model.ObjectID]model.Interval) model.ObjectID {
			objs[3] = model.NewInterval(2, 6)
			return 0
		}, false},
		{"original in the replicas division", func(_, _ *divIF, objs map[model.ObjectID]model.Interval) model.ObjectID {
			objs[6] = model.NewInterval(4, 12)
			return 0
		}, false},
		{"deleted object in an R_aft run", func(_, _ *divIF, _ map[model.ObjectID]model.Interval) model.ObjectID {
			return 6
		}, false},
	} {
		dom, o, r, objs := placedDivisions()
		deleted := tc.plant(o, r, objs)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected invariant panic, got none", tc.name)
				}
			}()
			if tc.orig {
				o.assertDivision("test", -1, true, homeOf(dom, 1, 0, objs, deleted))
			} else {
				r.assertDivision("test", 0, false, homeOf(dom, 2, 1, objs, deleted))
			}
		}()
	}
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
