package postings

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/model"
)

// Roaring-style hybrid containers for candidate intersections: sorted id
// slices (the array container every index already uses) stay the
// representation for sparse sets, while dense sets switch to a packed
// []uint64 bitmap with O(1) membership probes.
// Skewed array/array pairs use galloping (exponential) search instead of
// a full merge. IntersectAnySorted and List.IntersectAny are the
// container-aware dispatchers the hot paths call.

// BitmapCutoff is the candidate-set size at which intersections switch
// from the positional keep-mask / merge representation to the packed
// bitmap, mirroring roaring's 4096 array/bitmap threshold. It is a
// variable (not a constant) so differential tests can lower it and force
// the bitmap path onto small seeded workloads.
var BitmapCutoff = 4096

// GallopRatio is the size skew at which a merge intersection switches to
// galloping search probes of the larger side: |large| > GallopRatio *
// |small|. Tests lower it to force the galloping path.
var GallopRatio = 32

// Bitmap is a packed bitset over the dense internal object-id space.
// Word i bit b represents id i*64+b. The zero value is an empty bitmap.
type Bitmap struct {
	words []uint64
}

// Reset sizes the bitmap to hold ids in [0, universe) and clears every
// bit. Growth is amortized: a pooled bitmap reaches the largest universe
// it has served and is then reused allocation-free.
func (b *Bitmap) Reset(universe model.ObjectID) {
	nw := (int(universe) + 63) / 64
	if cap(b.words) < nw {
		b.grow(nw)
	}
	b.words = b.words[:nw]
	clear(b.words)
}

// Grow widens the universe to hold ids in [0, universe), keeping every
// bit already set; the added words start clear. It never shrinks, so a
// caller that clears its own bits can widen one bitmap across many
// marking rounds without paying a Reset over the universe for each.
func (b *Bitmap) Grow(universe model.ObjectID) {
	nw, n := (int(universe)+63)/64, len(b.words)
	if nw <= n {
		return
	}
	if cap(b.words) < nw {
		b.grow(nw)
	}
	b.words = b.words[:nw]
	clear(b.words[n:])
}

// grow reallocates the word slice, keeping its contents. Noinline so the
// rare make and copy stay out of line instead of being inlined through
// Reset and Grow into every marking loop.
//
//go:noinline
func (b *Bitmap) grow(nw int) {
	w := make([]uint64, len(b.words), nw)
	copy(w, b.words)
	b.words = w
}

// Set marks id. Ids at or beyond the sized universe are ignored — the
// marking paths probe division entries whose ids may exceed the largest
// candidate, and those can never survive a candidate compaction anyway.
func (b *Bitmap) Set(id model.ObjectID) {
	w := int(id >> 6)
	if w < len(b.words) {
		b.words[w] |= 1 << (id & 63)
	}
}

// Unset clears id. Ids at or beyond the sized universe are ignored.
func (b *Bitmap) Unset(id model.ObjectID) {
	w := int(id >> 6)
	if w < len(b.words) {
		b.words[w] &^= 1 << (id & 63)
	}
}

// Contains reports whether id is set. Out-of-universe ids report false.
func (b *Bitmap) Contains(id model.ObjectID) bool {
	w := int(id >> 6)
	return w < len(b.words) && b.words[w]&(1<<(id&63)) != 0
}

// SetSorted resets the bitmap to cover ids and marks each one. ids must
// be ascending; an empty slice yields an empty bitmap.
func (b *Bitmap) SetSorted(ids []model.ObjectID) {
	if len(ids) == 0 {
		b.Reset(0)
		return
	}
	assertSortedIDs(ids, "Bitmap.SetSorted")
	b.Reset(ids[len(ids)-1] + 1)
	for _, id := range ids {
		b.words[id>>6] |= 1 << (id & 63)
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// KeepSorted appends to dst the ids present in the bitmap, preserving
// their order, which must be ascending, and returns dst. dst may be ids[:0]
// to compact in place, as writes trail reads. The loop is branch-free in
// the bits: it writes every id and advances past it by its bit, so a
// candidate list whose bits look random costs no mispredictions.
func (b *Bitmap) KeepSorted(dst, ids []model.ObjectID) []model.ObjectID {
	start := len(dst)
	dst = slices.Grow(dst, len(ids))
	out := dst[start : start+len(ids)]
	words, n := b.words, 0
	for _, id := range ids {
		out[n] = id
		var w uint64
		if i := int(id >> 6); i < len(words) {
			w = words[i]
		}
		n += int(w >> (id & 63) & 1)
	}
	assertSortedIDs(out[:n], "Bitmap.KeepSorted")
	return dst[:start+n]
}

// SizeBytes reports the bitmap's resident size.
func (b *Bitmap) SizeBytes() int64 { return int64(cap(b.words)) * 8 }

// BitmapScratch is a pooled pair of reusable bitmaps for the
// intersection hot paths: Cands holds the candidate set, Matched
// accumulates per-division marks. The pool recycles them across
// queries, so steady-state bitmap intersections allocate nothing.
type BitmapScratch struct {
	Cands   Bitmap
	Matched Bitmap
}

var bitmapPool = sync.Pool{New: func() any { return new(BitmapScratch) }}

// GetBitmapScratch borrows a scratch pair from the pool.
func GetBitmapScratch() *BitmapScratch { return bitmapPool.Get().(*BitmapScratch) }

// PutBitmapScratch returns a scratch pair to the pool.
func PutBitmapScratch(s *BitmapScratch) { bitmapPool.Put(s) }

// GallopLowerBound returns the smallest index i in [lo, len(ids)] with
// ids[i] >= target, using exponential probing from lo — O(log d) for a
// match d positions ahead, the skew-friendly search the galloping
// intersections rely on. ids must be ascending.
func GallopLowerBound(ids []model.ObjectID, target model.ObjectID, lo int) int {
	if lo >= len(ids) || ids[lo] >= target {
		return lo
	}
	// Invariant: ids[lo] < target; double the step until hi overshoots.
	step := 1
	hi := lo + 1
	for hi < len(ids) && ids[hi] < target {
		lo = hi
		hi += step
		step <<= 1
	}
	if hi > len(ids) {
		hi = len(ids)
	}
	// Binary search in (lo, hi]: ids[lo] < target <= ids[hi] (or hi==len).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// GallopLowerBoundList is GallopLowerBound over a postings list's ids.
func GallopLowerBoundList(l []Posting, target model.ObjectID, lo int) int {
	if lo >= len(l) || l[lo].ID >= target {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(l) && l[hi].ID < target {
		lo = hi
		hi += step
		step <<= 1
	}
	if hi > len(l) {
		hi = len(l)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].ID < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// IntersectGalloping intersects two ascending id slices where small is
// much shorter than large: each small element gallops forward in large
// from the last probe position, so the cost is O(|small| log(|large| /
// |small|)) instead of the merge's O(|small| + |large|).
func IntersectGalloping(small, large, dst []model.ObjectID) []model.ObjectID {
	assertSortedIDs(small, "IntersectGalloping small")
	assertSortedIDs(large, "IntersectGalloping large")
	dst = slices.Grow(dst, len(small))
	lo := 0
	for _, id := range small {
		lo = GallopLowerBound(large, id, lo)
		if lo == len(large) {
			break
		}
		if large[lo] == id {
			dst = append(dst, id)
			lo++
		}
	}
	return dst
}

// IntersectAnySorted is the container-aware intersection dispatch for
// two ascending id slices: galloping when the sizes are skewed past
// GallopRatio, the linear merge otherwise. Results are identical to
// IntersectSortedIDs in all cases.
//
// dst may be a[:0] or b[:0], intersecting in place: both kernels write a
// result only over input elements already read, and never regrow such a dst.
func IntersectAnySorted(a, b, dst []model.ObjectID) []model.ObjectID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > len(a)*GallopRatio {
		return IntersectGalloping(a, b, dst)
	}
	return IntersectSortedIDs(a, b, dst)
}

// IntersectAny is the container-aware counterpart of IntersectIDs: when
// the list dwarfs the candidate set (or vice versa) it gallops through
// the larger side instead of merging both. Semantics match IntersectIDs
// exactly — in particular, tombstoned entries still match, relying on
// the all-copies-tombstoned deletion invariant the merge path relies on.
func (l List) IntersectAny(cands, dst []model.ObjectID) []model.ObjectID {
	switch {
	case len(l) > len(cands)*GallopRatio:
		assertSortedIDs(cands, "List.IntersectAny candidates")
		assertSortedList(l, "List.IntersectAny list")
		dst = slices.Grow(dst, len(cands))
		lo := 0
		for _, id := range cands {
			lo = GallopLowerBoundList(l, id, lo)
			if lo == len(l) {
				break
			}
			if l[lo].ID == id {
				dst = append(dst, id)
				lo++
			}
		}
		return dst
	case len(cands) > len(l)*GallopRatio:
		assertSortedIDs(cands, "List.IntersectAny candidates")
		assertSortedList(l, "List.IntersectAny list")
		dst = slices.Grow(dst, len(l))
		lo := 0
		for i := range l {
			lo = GallopLowerBound(cands, l[i].ID, lo)
			if lo == len(cands) {
				break
			}
			if cands[lo] == l[i].ID {
				dst = append(dst, cands[lo])
				lo++
			}
		}
		return dst
	default:
		return l.IntersectIDs(cands, dst)
	}
}
