package postings

import (
	"slices"
	"testing"

	"repro/internal/model"
)

// idsFromBytes derives a sorted, de-duplicated id list from raw fuzz
// bytes: each byte is a gap, so any input maps to a valid sorted list.
func idsFromBytes(raw []byte) []model.ObjectID {
	ids := make([]model.ObjectID, 0, len(raw))
	cur := model.ObjectID(0)
	for _, b := range raw {
		cur += model.ObjectID(b) + 1 // strictly increasing
		ids = append(ids, cur)
	}
	return ids
}

// intersectByBinarySearch is the literal probe-side intersection of
// Algorithm 3: for each candidate, binary-search the other list.
func intersectByBinarySearch(a, b []model.ObjectID) []model.ObjectID {
	var out []model.ObjectID
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); ok {
			out = append(out, id)
		}
	}
	return out
}

// intersectBySlices is a reference set intersection over the slices
// package alone: a with every id that b lacks deleted.
func intersectBySlices(a, b []model.ObjectID) []model.ObjectID {
	return slices.DeleteFunc(slices.Clone(a), func(id model.ObjectID) bool { return !slices.Contains(b, id) })
}

// FuzzIntersect verifies the two intersection strategies of the paper —
// merge (Algorithm 1 / 4) and binary search (Algorithm 3) — agree on
// arbitrary sorted inputs, in both argument orders, including the
// List-based merge used by postings-backed indices and the in-place form
// of the dispatch, its dst aliasing either operand.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 1, 2})
	f.Add([]byte{}, []byte{5, 5, 5})
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{0, 0, 0})
	f.Add([]byte{10, 20, 30}, []byte{})
	f.Add([]byte{255, 255}, []byte{1, 255, 3})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := idsFromBytes(rawA)
		b := idsFromBytes(rawB)

		merge := IntersectSortedIDs(a, b, nil)
		bs := intersectByBinarySearch(a, b)
		if !model.EqualIDs(merge, bs) {
			t.Fatalf("merge %v != binary-search %v for a=%v b=%v", merge, bs, a, b)
		}

		// Symmetry.
		rev := IntersectSortedIDs(b, a, nil)
		if !model.EqualIDs(merge, rev) {
			t.Fatalf("intersection not symmetric: %v vs %v", merge, rev)
		}

		// List-based merge (Algorithm 1 Line 8) must agree too.
		l := make(List, len(b))
		for i, id := range b {
			l[i] = Posting{ID: id, Interval: model.NewInterval(0, 1)}
		}
		viaList := l.IntersectIDs(a, nil)
		if !model.EqualIDs(merge, viaList) {
			t.Fatalf("List.IntersectIDs %v != IntersectSortedIDs %v", viaList, merge)
		}

		// In place: dst = a[:0] and dst = b[:0], against the reference.
		ref := intersectBySlices(a, b)
		for _, alias := range []string{"a", "b"} {
			x, y := slices.Clone(a), slices.Clone(b)
			dst := x[:0]
			if alias == "b" {
				dst = y[:0]
			}
			if got := IntersectAnySorted(x, y, dst); !model.EqualIDs(got, ref) {
				t.Fatalf("IntersectAnySorted(a, b, %s[:0]) = %v, want %v", alias, got, ref)
			}
		}

		// Every reported id is in both inputs; result stays sorted.
		for i, id := range merge {
			_, inA := slices.BinarySearch(a, id)
			_, inB := slices.BinarySearch(b, id)
			if !inA || !inB {
				t.Fatalf("result id %d not in both inputs", id)
			}
			if i > 0 && merge[i-1] >= id {
				t.Fatalf("result not strictly ascending: %v", merge)
			}
		}
	})
}
