package postings

import (
	"slices"
	"sync"
	"unsafe"

	"repro/internal/model"
)

// The later-element kernel of the IR-first indices. A query answers its
// least frequent element under the time predicate, then keeps only the
// candidates that every other element holds. The candidates are live and
// overlap q, and Delete tombstones every copy of an object, so a later
// element's test is id membership alone: a candidate stays when its id
// occurs in any of the element's relevant fragments (a slice, a HINT
// division, a shard window). No arm below reads an interval or a
// tombstone.

// Entry is a fragment element the kernel reads an id from: a bare id, a
// postings entry, or a pair of the hybrid's sliced copy. Each stores its
// id first.
type Entry interface {
	model.ObjectID | Posting | Pair
}

// Pair is one entry of tIF+HINT+Slicing's sliced copy: the object id and
// only its start timestamp, enough for the reference-value
// de-duplication (Section 3.2: intersections after the first element
// need no temporal predicate). A delete leaves the pair in place: the
// kernel reads later elements by id membership among live candidates,
// so nothing reads a deleted pair.
type Pair struct {
	ID    model.ObjectID
	Start model.Timestamp
}

// idOf reads the id an Entry stores first. The array index below fails
// to compile if an Entry type stops storing its id at offset 0.
func idOf[E Entry](e *E) model.ObjectID { return *(*model.ObjectID)(unsafe.Pointer(e)) }

var _ = [1]struct{}{}[unsafe.Offsetof(Posting{}.ID)|unsafe.Offsetof(Pair{}.ID)]

// Later keeps the candidates one later element holds. A pass is Begin,
// one Mark per relevant fragment, then Keep; a query runs one pass per
// later element on one Later from GetLater, so its passes allocate
// nothing once the pooled scratch has grown.
type Later struct {
	cands  []model.ObjectID
	bitmap bool    // the pass marks ids in bm, else positions in keep
	merged bool    // a positional pass has merged a fragment
	keep   []uint8 // keep[i] == 1 once a fragment holds cands[i]
	bm     Bitmap  // the ids met, plus one trash word past the candidates'
}

var laterPool = sync.Pool{New: func() any { return new(Later) }}

// GetLater borrows a kernel from the pool.
func GetLater() *Later { return laterPool.Get().(*Later) }

// PutLater returns a kernel to the pool.
func PutLater(k *Later) {
	k.cands = nil
	laterPool.Put(k)
}

// Begin starts a pass over cands, ascending and non-empty. sorted says
// whether every fragment of the pass is id-sorted. An unsorted pass, or
// one over at least BitmapCutoff candidates, marks a bitmap of ids; any
// other marks the candidates' positions.
func (k *Later) Begin(cands []model.ObjectID, sorted bool) {
	assertSorted(cands, "Later.Begin")
	k.cands, k.bitmap, k.merged = cands, !sorted || len(cands) >= BitmapCutoff, false
	if k.bitmap {
		k.resetBitmap()
		return
	}
	if cap(k.keep) < len(cands) {
		k.keep = make([]uint8, len(cands))
	}
	k.keep = k.keep[:len(cands)]
	clear(k.keep)
}

// Mark records the candidates frag holds. A bitmap pass sets the bit of
// every id in frag. A positional pass picks its arm from the sizes: it
// gallops each candidate into a fragment more than GallopRatio times
// larger, gallops each fragment id into candidates more than GallopRatio
// times larger, and merges the two otherwise — once. A second merge
// would walk every candidate again, so when the bitmap has no more words
// than there are candidates the pass turns into a bitmap pass instead.
func Mark[E Entry](k *Later, frag []E) {
	if k.bitmap {
		words := k.bm.words
		last := len(words) - 1
		for i := range frag {
			id := idOf(&frag[i])
			words[min(int(id>>6), last)] |= 1 << (id & 63)
		}
		return
	}
	assertSorted(frag, "Mark fragment")
	c, keep := k.cands, k.keep[:len(k.cands)]
	switch {
	case len(frag) > len(c)*GallopRatio:
		lo := 0
		for i, id := range c {
			if lo = gallopLowerBound(frag, id, lo); lo == len(frag) {
				return
			}
			if idOf(&frag[lo]) == id {
				keep[i] = 1
				lo++
			}
		}
	case len(c) > len(frag)*GallopRatio:
		lo := 0
		for j := range frag {
			id := idOf(&frag[j])
			if lo = gallopLowerBound(c, id, lo); lo == len(c) {
				return
			}
			if c[lo] == id {
				keep[lo] = 1
				lo++
			}
		}
	case k.merged && int(c[len(c)-1]>>6)+2 <= len(c):
		// A second merge would re-walk more candidates than the bitmap
		// has words: carry the marks over and mark ids from here on.
		k.resetBitmap()
		for i, id := range c {
			k.bm.words[id>>6] |= uint64(keep[i]) << (id & 63)
		}
		k.bitmap = true
		Mark(k, frag)
	default:
		k.merged = true
		i, j := 0, 0
		for i < len(c) && j < len(frag) {
			switch a, b := c[i], idOf(&frag[j]); {
			case a < b:
				i++
			case a > b:
				j++
			default:
				keep[i] = 1
				i++
				j++
			}
		}
	}
}

// resetBitmap clears bm over the candidates' ids and at least one word
// past the largest's: Mark sends every larger id, dead bit included, to
// the last word.
func (k *Later) resetBitmap() { k.bm.Reset(k.cands[len(k.cands)-1] + 65) }

// Keep ends the pass: it appends to dst the candidates some fragment
// held, in their order, and returns dst. dst may be the candidates' [:0],
// compacting them in place.
func (k *Later) Keep(dst []model.ObjectID) []model.ObjectID {
	c := k.cands
	k.cands = nil
	if k.bitmap {
		return k.bm.KeepSorted(dst, c)
	}
	start := len(dst)
	dst = slices.Grow(dst, len(c))
	out, keep := dst[start:start+len(c)], k.keep[:len(c)]
	n := 0
	for i, id := range c {
		out[n] = id
		n += int(keep[i])
	}
	return dst[:start+n]
}
