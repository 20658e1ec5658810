package postings

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

func iv(s, e model.Timestamp) model.Interval { return model.Interval{Start: s, End: e} }

func TestListSortAndFind(t *testing.T) {
	l := List{{ID: 5, Interval: iv(0, 1)}, {ID: 1, Interval: iv(2, 3)}, {ID: 3, Interval: iv(4, 5)}}
	if l.isSorted() {
		t.Error("unsorted list reported sorted")
	}
	l.Sort()
	if !l.isSorted() {
		t.Error("Sort did not sort")
	}
	if pos, ok := l.FindID(3); !ok || pos != 1 {
		t.Errorf("FindID(3) = %d, %v", pos, ok)
	}
	if _, ok := l.FindID(2); ok {
		t.Error("FindID(2) should miss")
	}
	if pos, _ := l.FindID(9); pos != len(l) {
		t.Error("FindID past end should return len")
	}
}

func TestTemporalFilter(t *testing.T) {
	l := List{
		{ID: 0, Interval: iv(0, 10)},
		{ID: 1, Interval: iv(20, 30)},
		{ID: 2, Interval: iv(5, 25)},
	}
	got := l.TemporalFilter(iv(8, 22), nil)
	want := []model.ObjectID{0, 1, 2}
	if !model.EqualIDs(got, want) {
		t.Errorf("TemporalFilter = %v, want %v", got, want)
	}
	got = l.TemporalFilter(iv(11, 19), nil)
	want = []model.ObjectID{2}
	if !model.EqualIDs(got, want) {
		t.Errorf("TemporalFilter = %v, want %v", got, want)
	}
	if got := l.TemporalFilter(iv(100, 200), nil); len(got) != 0 {
		t.Errorf("TemporalFilter = %v, want empty", got)
	}
}

func TestIntersectIDs(t *testing.T) {
	l := List{{ID: 1}, {ID: 3}, {ID: 5}, {ID: 7}}
	tests := []struct {
		cands, want []model.ObjectID
	}{
		{nil, nil},
		{[]model.ObjectID{2, 4, 6}, nil},
		{[]model.ObjectID{1, 7}, []model.ObjectID{1, 7}},
		{[]model.ObjectID{0, 3, 5, 9}, []model.ObjectID{3, 5}},
		{[]model.ObjectID{1, 3, 5, 7}, []model.ObjectID{1, 3, 5, 7}},
	}
	for _, tt := range tests {
		got := l.intersectIDs(tt.cands, nil)
		if !model.EqualIDs(got, tt.want) {
			t.Errorf("IntersectIDs(%v) = %v, want %v", tt.cands, got, tt.want)
		}
	}
}

func TestIntersectSortedIDs(t *testing.T) {
	a := []model.ObjectID{1, 2, 4, 8}
	b := []model.ObjectID{2, 3, 4, 9}
	got := IntersectSortedIDs(a, b, nil)
	want := []model.ObjectID{2, 4}
	if !model.EqualIDs(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := IntersectSortedIDs(a, nil, nil); len(got) != 0 {
		t.Error("intersection with empty should be empty")
	}
}

func TestIntersectAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		a := randomSortedIDs(rng, 40, 60)
		b := randomSortedIDs(rng, 40, 60)
		got := IntersectSortedIDs(a, b, nil)
		inB := map[model.ObjectID]bool{}
		for _, id := range b {
			inB[id] = true
		}
		var want []model.ObjectID
		for _, id := range a {
			if inB[id] {
				want = append(want, id)
			}
		}
		if !model.EqualIDs(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func randomSortedIDs(rng *rand.Rand, n, space int) []model.ObjectID {
	ids := make([]model.ObjectID, rng.Intn(n))
	for i := range ids {
		ids[i] = model.ObjectID(rng.Intn(space))
	}
	model.SortIDs(ids)
	return model.DedupIDs(ids)
}

func TestRefValue(t *testing.T) {
	if RefValue(5, 3) != 5 {
		t.Error("RefValue(5,3) should be 5")
	}
	if RefValue(3, 5) != 5 {
		t.Error("RefValue(3,5) should be 5")
	}
	if RefValue(4, 4) != 4 {
		t.Error("RefValue(4,4) should be 4")
	}
}

// The reference point must lie inside both the object interval and the
// query interval whenever they overlap — that is what makes the slice that
// contains it unique and guaranteed to hold a replica of the object.
func TestRefValueInsideBothIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		o := model.Canon(model.Timestamp(rng.Intn(100)), model.Timestamp(rng.Intn(100)))
		q := model.Canon(model.Timestamp(rng.Intn(100)), model.Timestamp(rng.Intn(100)))
		if !o.Overlaps(q) {
			continue
		}
		ref := RefValue(o.Start, q.Start)
		if !o.Contains(ref) || !q.Contains(ref) {
			t.Fatalf("ref %d outside o=%v q=%v", ref, o, q)
		}
	}
}
