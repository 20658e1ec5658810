package postings

import (
	"slices"
	"testing"

	"repro/internal/model"
)

func TestBitmapSetContains(t *testing.T) {
	var b Bitmap
	b.Reset(200)
	for _, id := range []model.ObjectID{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Contains(id) {
			t.Fatalf("fresh bitmap contains %d", id)
		}
		b.Set(id)
		if !b.Contains(id) {
			t.Fatalf("bitmap lost %d after Set", id)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	// Out-of-universe ids are ignored by Set and absent for Contains.
	b.Set(1000)
	if b.Contains(1000) {
		t.Fatal("out-of-universe Set took effect")
	}
	// Reset clears and resizes.
	b.Reset(64)
	if got := b.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d, want 0", got)
	}
	if b.Contains(63) {
		t.Fatal("Reset left bit 63 set")
	}
}

func TestBitmapSetSortedRoundTrip(t *testing.T) {
	cases := [][]model.ObjectID{
		nil,
		{0},
		{63, 64, 65},
		{5, 6, 7, 1000, 4096, 4097},
	}
	var b Bitmap
	for _, ids := range cases {
		b.SetSorted(ids)
		got := b.KeepSorted(nil, ids)
		if !model.EqualIDs(got, ids) {
			t.Errorf("round trip %v -> %v", ids, got)
		}
		if b.Count() != len(ids) {
			t.Errorf("Count(%v) = %d", ids, b.Count())
		}
	}
}

// TestBitmapKeepSorted: KeepSorted appends after what dst holds, leaves
// ids alone when dst is another buffer, and compacts in place into ids[:0].
func TestBitmapKeepSorted(t *testing.T) {
	var b Bitmap
	b.SetSorted([]model.ObjectID{3, 64, 70})
	ids := []model.ObjectID{1, 3, 64, 69, 70, 4096}
	orig := slices.Clone(ids)
	if got, want := b.KeepSorted([]model.ObjectID{0}, ids), []model.ObjectID{0, 3, 64, 70}; !model.EqualIDs(got, want) || !slices.Equal(ids, orig) {
		t.Fatalf("KeepSorted into a prefixed dst = %v (ids now %v), want %v", got, ids, want)
	}
	if got, want := b.KeepSorted(ids[:0], ids), []model.ObjectID{3, 64, 70}; !model.EqualIDs(got, want) || &got[0] != &ids[0] {
		t.Fatalf("KeepSorted in place = %v, want %v in ids' own array", got, want)
	}
}

func TestGallopLowerBound(t *testing.T) {
	ids := []model.ObjectID{2, 4, 4, 8, 16, 32, 33, 34, 64, 100}
	for lo := 0; lo <= len(ids); lo++ {
		for target := model.ObjectID(0); target <= 101; target++ {
			got := gallopLowerBound(ids, target, lo)
			want := lo
			for want < len(ids) && ids[want] < target {
				want++
			}
			if got != want {
				t.Fatalf("gallopLowerBound(%v, %d, %d) = %d, want %d", ids, target, lo, got, want)
			}
		}
	}
}

func TestIntersectGallopingMatchesMerge(t *testing.T) {
	small := []model.ObjectID{5, 100, 101, 4000}
	large := make([]model.ObjectID, 0, 5000)
	for i := 0; i < 5000; i++ {
		large = append(large, model.ObjectID(i))
	}
	got := intersectGalloping(small, large, nil)
	want := IntersectSortedIDs(small, large, nil)
	if !model.EqualIDs(got, want) {
		t.Fatalf("galloping %v != merge %v", got, want)
	}
}

// TestIntersectAnySortedForcedPaths lowers GallopRatio so both dispatch
// arms run on small inputs, and verifies each against the merge.
func TestIntersectAnySortedForcedPaths(t *testing.T) {
	old := GallopRatio
	GallopRatio = 1
	defer func() { GallopRatio = old }()

	a := []model.ObjectID{1, 5, 9, 20}
	b := []model.ObjectID{0, 1, 2, 5, 6, 7, 9, 10, 20, 21, 30, 40}
	want := IntersectSortedIDs(a, b, nil)
	if got := IntersectAnySorted(a, b, nil); !model.EqualIDs(got, want) {
		t.Fatalf("IntersectAnySorted(a,b) = %v, want %v", got, want)
	}
	if got := IntersectAnySorted(b, a, nil); !model.EqualIDs(got, want) {
		t.Fatalf("IntersectAnySorted(b,a) = %v, want %v", got, want)
	}
	// In-place reuse: dst = cands[:0], the hot-path aliasing pattern.
	cands := append([]model.ObjectID(nil), a...)
	if got := IntersectAnySorted(cands, b, cands[:0]); !model.EqualIDs(got, want) {
		t.Fatalf("aliased IntersectAnySorted = %v, want %v", got, want)
	}
}

// TestIntersectAnySortedInPlace pins the in-place contract: dst may be
// a[:0] or b[:0], through both dispatch arms (merge and galloping) and in
// both operand orders, since the dispatcher swaps them to put the shorter
// first. The result must be right and must stay in the aliased operand's
// storage.
func TestIntersectAnySortedInPlace(t *testing.T) {
	short := []model.ObjectID{1, 5, 9, 20, 64, 65, 200}
	mergeSide := []model.ObjectID{0, 1, 2, 5, 6, 9, 20, 21, 64, 200, 201}
	gallopSide := make([]model.ObjectID, 0, len(short)*GallopRatio+10)
	for i := 0; len(gallopSide) < cap(gallopSide); i++ {
		if i%3 != 0 {
			gallopSide = append(gallopSide, model.ObjectID(i))
		}
	}
	for arm, long := range map[string][]model.ObjectID{"merge": mergeSide, "galloping": gallopSide} {
		want := intersectBySlices(short, long)
		for _, order := range []string{"short first", "long first"} {
			for _, alias := range []string{"a[:0]", "b[:0]"} {
				a, b := slices.Clone(short), slices.Clone(long)
				if order == "long first" {
					a, b = b, a
				}
				dst := a[:0]
				if alias == "b[:0]" {
					dst = b[:0]
				}
				got := IntersectAnySorted(a, b, dst)
				if !model.EqualIDs(got, want) {
					t.Fatalf("%s, %s, dst = %s: got %v, want %v", arm, order, alias, got, want)
				}
				if &got[:1][0] != &dst[:1][0] {
					t.Errorf("%s, %s, dst = %s: result left the operand's storage", arm, order, alias)
				}
			}
		}
	}
}

// TestListIntersectAnyMatchesIntersectIDs verifies the dispatching list
// intersection agrees with the plain merge in both skew directions —
// including tombstoned entries, which intersectIDs deliberately keeps
// (deletion tombstones every copy, so a dead object never enters the
// candidate set in the first place).
func TestListIntersectAnyMatchesIntersectIDs(t *testing.T) {
	old := GallopRatio
	GallopRatio = 1
	defer func() { GallopRatio = old }()

	l := make(List, 0, 40)
	for i := 0; i < 40; i++ {
		p := Posting{ID: model.ObjectID(i * 2), Interval: model.NewInterval(0, 10)}
		if i%7 == 0 {
			p.Interval = Tombstone
		}
		l = append(l, p)
	}
	cands := []model.ObjectID{0, 3, 14, 28, 40, 77, 78}
	want := l.intersectIDs(cands, nil)
	if got := l.IntersectAny(cands, nil); !model.EqualIDs(got, want) {
		t.Fatalf("list-gallop arm = %v, want %v", got, want)
	}
	// Opposite skew: candidates dwarf the list.
	shortList := l[:2]
	want = shortList.intersectIDs(cands, nil)
	if got := shortList.IntersectAny(cands, nil); !model.EqualIDs(got, want) {
		t.Fatalf("cands-gallop arm = %v, want %v", got, want)
	}
}

func TestBitmapScratchPool(t *testing.T) {
	s := GetBitmapScratch()
	s.Cands.SetSorted([]model.ObjectID{1, 2, 3})
	PutBitmapScratch(s)
	s2 := GetBitmapScratch()
	defer PutBitmapScratch(s2)
	// Pooled bitmaps are reused dirty; Reset/SetSorted must fully clear.
	s2.Cands.SetSorted([]model.ObjectID{5})
	if got := s2.Cands.Count(); got != 1 || !s2.Cands.Contains(5) {
		t.Fatalf("pooled bitmap not cleared: %d ids set", got)
	}
}

// FuzzContainerParity drives the bitmap container against the sorted
// slice oracles on arbitrary id sets: array -> bitmap -> array
// round-trips, and KeepSorted against the merge intersection.
func FuzzContainerParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 1, 2})
	f.Add([]byte{}, []byte{5, 5, 5})
	f.Add([]byte{255, 255, 255}, []byte{0})
	f.Add([]byte{63, 1, 64}, []byte{63, 2})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := idsFromBytes(rawA)
		b := idsFromBytes(rawB)

		var ba, bb Bitmap
		ba.SetSorted(a)
		bb.SetSorted(b)

		// Round trips: every expected id survives KeepSorted, and Count
		// rules out extra bits.
		if got := ba.KeepSorted(nil, a); !model.EqualIDs(got, a) || ba.Count() != len(a) {
			t.Fatalf("round trip %v -> %v (%d bits set)", a, got, ba.Count())
		}
		if got := bb.KeepSorted(nil, b); !model.EqualIDs(got, b) || bb.Count() != len(b) {
			t.Fatalf("round trip %v -> %v (%d bits set)", b, got, bb.Count())
		}
		for _, id := range a {
			if !ba.Contains(id) {
				t.Fatalf("bitmap missing %d", id)
			}
		}

		// KeepSorted, in place, vs merge intersection.
		want := IntersectSortedIDs(a, b, nil)
		cands := slices.Clone(a)
		if got := bb.KeepSorted(cands[:0], cands); !model.EqualIDs(got, want) {
			t.Fatalf("KeepSorted = %v, want %v (a=%v b=%v)", got, want, a, b)
		}
	})
}

// FuzzGallopParity drives the galloping intersections against the merge
// oracle on arbitrary sorted inputs, in both skew directions, plus the
// List-based dispatch arms.
func FuzzGallopParity(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{1, 1, 2})
	f.Add([]byte{}, []byte{5})
	f.Add([]byte{10}, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := idsFromBytes(rawA)
		b := idsFromBytes(rawB)
		want := IntersectSortedIDs(a, b, nil)

		if got := intersectGalloping(a, b, nil); !model.EqualIDs(got, want) {
			t.Fatalf("intersectGalloping(a,b) = %v, want %v (a=%v b=%v)", got, want, a, b)
		}
		if got := intersectGalloping(b, a, nil); !model.EqualIDs(got, want) {
			t.Fatalf("intersectGalloping(b,a) = %v, want %v (a=%v b=%v)", got, want, a, b)
		}
		if got := IntersectAnySorted(a, b, nil); !model.EqualIDs(got, want) {
			t.Fatalf("IntersectAnySorted = %v, want %v (a=%v b=%v)", got, want, a, b)
		}

		// The List dispatch arms: build the list from b, intersect with a.
		l := make(List, len(b))
		for i, id := range b {
			l[i] = Posting{ID: id, Interval: model.NewInterval(0, 1)}
		}
		wantList := l.intersectIDs(a, nil)
		if got := l.IntersectAny(a, nil); !model.EqualIDs(got, wantList) {
			t.Fatalf("List.IntersectAny = %v, want %v (a=%v b=%v)", got, wantList, a, b)
		}
	})
}
