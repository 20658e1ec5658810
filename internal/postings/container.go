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
// a full merge. IntersectAnySorted and the later-element kernel (Later)
// are the container-aware dispatchers the hot paths call.

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
	assertSorted(ids, "Bitmap.SetSorted")
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
	assertSorted(out[:n], "Bitmap.KeepSorted")
	return dst[:start+n]
}

// SizeBytes reports the bitmap's resident size.
func (b *Bitmap) SizeBytes() int64 { return int64(cap(b.words)) * 8 }

// BitmapScratch is a pooled reusable bitmap for the tIF+HINT binary
// variant's probes: Cands holds the candidate set. The pool recycles it
// across queries, so steady-state probes allocate nothing.
type BitmapScratch struct {
	Cands Bitmap
}

var bitmapPool = sync.Pool{New: func() any { return new(BitmapScratch) }}

// GetBitmapScratch borrows a scratch bitmap from the pool.
func GetBitmapScratch() *BitmapScratch { return bitmapPool.Get().(*BitmapScratch) }

// PutBitmapScratch returns a scratch bitmap to the pool.
func PutBitmapScratch(s *BitmapScratch) { bitmapPool.Put(s) }

// gallopLowerBound returns the smallest index i in [lo, len(s)] with
// s[i]'s id >= target, using exponential probing from lo — O(log d) for
// a match d positions ahead, the skew-friendly search the galloping
// intersections rely on. s must be ascending by id.
func gallopLowerBound[E Entry](s []E, target model.ObjectID, lo int) int {
	if lo >= len(s) || idOf(&s[lo]) >= target {
		return lo
	}
	// Invariant: s[lo] < target; double the step until hi overshoots.
	step := 1
	hi := lo + 1
	for hi < len(s) && idOf(&s[hi]) < target {
		lo = hi
		hi += step
		step <<= 1
	}
	if hi > len(s) {
		hi = len(s)
	}
	// Binary search in (lo, hi]: s[lo] < target <= s[hi] (or hi==len).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if idOf(&s[mid]) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// intersectGalloping intersects two ascending id slices where small is
// much shorter than large: each small element gallops forward in large
// from the last probe position, so the cost is O(|small| log(|large| /
// |small|)) instead of the merge's O(|small| + |large|).
func intersectGalloping(small, large, dst []model.ObjectID) []model.ObjectID {
	assertSorted(small, "intersectGalloping small")
	assertSorted(large, "intersectGalloping large")
	dst = slices.Grow(dst, len(small))
	lo := 0
	for _, id := range small {
		lo = gallopLowerBound(large, id, lo)
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
		return intersectGalloping(a, b, dst)
	}
	return IntersectSortedIDs(a, b, dst)
}

// IntersectAny appends to dst the candidates the list holds, in order:
// a one-fragment pass of the later-element kernel (Later), so it gallops
// or merges by the two sizes and reads ids only. Tombstoned entries still
// match: deletion tombstones every copy, so a dead object never enters
// the candidate set in the first place. dst may be cands[:0].
func (l List) IntersectAny(cands, dst []model.ObjectID) []model.ObjectID {
	if len(cands) == 0 {
		return dst
	}
	k := GetLater()
	defer PutLater(k)
	k.Begin(cands, true)
	Mark(k, l)
	return k.Keep(dst)
}
