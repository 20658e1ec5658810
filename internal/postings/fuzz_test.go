package postings

import (
	"bytes"
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
		viaList := l.intersectIDs(a, nil)
		if !model.EqualIDs(merge, viaList) {
			t.Fatalf("List.intersectIDs %v != IntersectSortedIDs %v", viaList, merge)
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

// FuzzMarkParity drives the later-element kernel against a set-membership
// oracle: random ascending candidates, 1-60 fragments dealt from a second
// id list, id-sorted or reversed, as postings, hybrid pairs or bare ids,
// with every arm forced in turn — mode picks the gallop ratio (production,
// 1 so the sizes always gallop, or never) and the bitmap cutoff
// (production, always, or never). An unsorted pass also meets ids with
// the dead bit, as tIF+Sharding's windows do. Two passes run on one
// pooled kernel, the second over the first's answer.
func FuzzMarkParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 1, 2, 0, 0}, uint8(3), uint8(0))
	f.Add([]byte{5, 5, 5}, []byte{}, uint8(0), uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{200, 0, 0, 0}, uint8(59), uint8(17))
	f.Add([]byte{63, 1, 64}, []byte{63, 2, 0, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(53))
	// Each gallop direction meeting ids between the other side's.
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{2}, uint8(0), uint8(1))
	f.Add([]byte{2}, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(0), uint8(1))
	// Dense candidates merged with four fragments: the pass turns to the
	// bitmap at its second merge.
	f.Add(make([]byte, 200), bytes.Repeat([]byte{1}, 100), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, rawC, rawF []byte, nfrag, mode uint8) {
		cands := idsFromBytes(rawC)
		if len(cands) == 0 {
			return
		}
		defer func(r, c int) { GallopRatio, BitmapCutoff = r, c }(GallopRatio, BitmapCutoff)
		GallopRatio = []int{32, 1, 1 << 30}[mode%3]
		BitmapCutoff = []int{4096, 0, 1 << 30}[mode/3%3]
		sorted := mode/9%2 == 0
		frags := make([][]model.ObjectID, 1+int(nfrag)%60)
		for i, id := range idsFromBytes(rawF) {
			frags[i%len(frags)] = append(frags[i%len(frags)], id)
		}
		if !sorted {
			for i := range frags {
				slices.Reverse(frags[i])
				frags[i] = append(frags[i], MarkDead(model.ObjectID(i)))
			}
		}
		held := map[model.ObjectID]bool{}
		for _, fr := range frags {
			for _, id := range fr {
				held[id] = true
			}
		}
		want := slices.DeleteFunc(slices.Clone(cands), func(id model.ObjectID) bool { return !held[id] })

		k := GetLater()
		defer PutLater(k)
		pass := func(cands []model.ObjectID, dst []model.ObjectID) []model.ObjectID {
			k.Begin(cands, sorted)
			for i, fr := range frags {
				switch (int(mode) + i) % 3 {
				case 0:
					Mark(k, fr)
				case 1:
					l := make(List, len(fr))
					for j, id := range fr {
						l[j] = Posting{ID: id, Interval: Tombstone}
					}
					Mark(k, l)
				default:
					ps := make([]Pair, len(fr))
					for j, id := range fr {
						ps[j] = Pair{ID: id}
					}
					Mark(k, ps)
				}
			}
			return k.Keep(dst)
		}
		got := pass(slices.Clone(cands), []model.ObjectID{7})
		if !slices.Equal(got[1:], want) || got[0] != 7 {
			t.Fatalf("pass into a prefixed dst = %v, want [7] + %v (cands %v, frags %v)", got, want, cands, frags)
		}
		if len(want) == 0 {
			return
		}
		own := slices.Clone(want)
		if got := pass(own, own[:0]); !slices.Equal(got, want) {
			t.Fatalf("in-place second pass = %v, want %v", got, want)
		}
	})
}
