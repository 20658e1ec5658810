package temporalir_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	temporalir "repro"
	"repro/internal/model"
	"repro/internal/testutil"
)

// TestElementFreeQueriesSeeTermlessObjects pins the one answer to a query
// without elements: every live object whose lifespan overlaps the window,
// with or without elements, whether it sits in an index or a memtable.
// Objects without elements appear in no postings list, so only the
// generation's scan can find them. All nine methods at one and four
// stores run element-free SearchCtx, SearchTopKCtx, TimelineCtx and
// SearchBatchCtx against the scan oracle at build, after inserts and
// deletes, after Compact, and after Save and a load.
func TestElementFreeQueriesSeeTermlessObjects(t *testing.T) {
	type object struct {
		s, e  temporalir.Timestamp
		terms []string
	}
	built := []object{
		{0, 10, []string{"a"}},
		{3, 4, nil},
		{20, 30, []string{"b"}},
		{40, 60, nil},
		{70, 90, []string{"a", "b"}},
		{95, 100, nil},
	}
	inserted := []object{{2, 5, nil}, {50, 80, []string{"a"}}, {85, 99, nil}}
	deleted := []temporalir.ObjectID{3, 8} // one built, one inserted, both termless
	windows := []temporalir.Interval{
		temporalir.NewInterval(0, 100),
		temporalir.NewInterval(3, 3),
		temporalir.NewInterval(5, 19),
		temporalir.NewInterval(45, 96),
		temporalir.NewInterval(-10, -1),
	}
	queries := make([]temporalir.Query, len(windows))
	for i, w := range windows {
		queries[i] = temporalir.Query{Interval: w}
	}

	for _, m := range all9Methods() {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", m, width), func(t *testing.T) {
				// The oracle's objects carry no elements: element-free
				// queries never read them.
				var objs []model.Object
				b := temporalir.NewBuilder()
				for _, o := range built {
					id := b.Add(o.s, o.e, o.terms...)
					objs = append(objs, model.Object{ID: id, Interval: temporalir.NewInterval(o.s, o.e)})
				}
				eng, err := b.BuildSharded(m, temporalir.Options{}, temporalir.ShardedOptions{Shards: width})
				if err != nil {
					t.Fatal(err)
				}
				var dead []temporalir.ObjectID
				check := func(stage string) {
					t.Helper()
					c := &model.Collection{Objects: objs}
					o := newScanOracle(c)
					for _, id := range dead {
						o.live.Delete(id)
					}
					checkElementFree(t, stage, eng, o, queries)
				}
				check("build")

				for _, o := range inserted {
					id := eng.Insert(o.s, o.e, o.terms...)
					objs = append(objs, model.Object{ID: id, Interval: temporalir.NewInterval(o.s, o.e)})
				}
				for _, id := range deleted {
					if err := eng.Delete(id); err != nil {
						t.Fatalf("delete %d: %v", id, err)
					}
					dead = append(dead, id)
				}
				check("insert+delete")

				if _, err := eng.Compact(context.Background()); err != nil {
					t.Fatalf("compact: %v", err)
				}
				check("compact")

				var buf bytes.Buffer
				if err := eng.Save(&buf); err != nil {
					t.Fatalf("save: %v", err)
				}
				if width == 1 {
					eng, err = temporalir.LoadEngine(&buf, m, temporalir.Options{})
				} else {
					eng, err = temporalir.LoadSharded(&buf, m, temporalir.Options{}, temporalir.ShardedOptions{Shards: width})
				}
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				check("load")
			})
		}
	}
}

// checkElementFree compares one engine's element-free answers on every
// query surface with the scan oracle's.
func checkElementFree(t *testing.T, stage string, e *temporalir.Engine, o *scanOracle, queries []temporalir.Query) {
	t.Helper()
	ctx := context.Background()
	batch := e.SearchBatchCtx(ctx, queries)
	for i, q := range queries {
		iv := q.Interval
		want := testutil.Canonical(o.live.Query(q))
		got, err := e.SearchCtx(ctx, iv.Start, iv.End)
		if err != nil || !model.EqualIDs(got, want) {
			t.Errorf("%s: SearchCtx %v = %v (err %v), want %v", stage, iv, got, err, want)
		}
		if r := batch[i]; r.Err != nil || !model.EqualIDs(r.IDs, want) {
			t.Errorf("%s: SearchBatchCtx row %v = %v (err %v), want %v", stage, iv, r.IDs, r.Err, want)
		}
		top, err := e.SearchTopKCtx(ctx, iv.Start, iv.End, 4)
		if wantK := o.topK(q, 4); err != nil || !reflect.DeepEqual(top, wantK) {
			t.Errorf("%s: SearchTopKCtx %v = %v (err %v), want %v", stage, iv, top, err, wantK)
		}
		tl, err := e.TimelineCtx(ctx, iv.Start, iv.End, 4)
		if wantT := o.timeline(q, 4); err != nil || !reflect.DeepEqual(tl, wantT) {
			t.Errorf("%s: TimelineCtx %v = %v (err %v), want %v", stage, iv, tl, err, wantT)
		}
	}
}
