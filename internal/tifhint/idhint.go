package tifhint

import (
	"sort"

	"repro/internal/domain"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
)

// idHint is the modified HINT of Algorithm 4: one hierarchy per postings
// list whose originals/replicas divisions are sorted by object id instead
// of the beneficial temporal orders. Range queries therefore scan with
// per-entry comparisons, but candidate intersections run as linear merges
// — the trade the merge-sort variant and the hybrid are built on.
type idHint struct {
	dom    domain.Domain
	levels []hint.Directory[idPart]
	live   int
}

// idPart holds the originals (o) and replicas (r) divisions, id-sorted.
type idPart struct {
	o []postings.Posting
	r []postings.Posting
}

func newIDHint(dom domain.Domain) *idHint {
	return &idHint{dom: dom, levels: make([]hint.Directory[idPart], dom.M+1)}
}

// insert routes the entry through the HINT assignment, keeping divisions
// id-sorted (appends suffice for monotonically growing ids; out-of-order
// ids fall back to a positioned insert).
func (h *idHint) insert(p postings.Posting) {
	hint.Assign(h.dom, p.Interval, func(level int, j uint32, original, _ bool) {
		part := h.levels[level].GetOrCreate(j)
		if original {
			part.o = insertByID(part.o, p)
		} else {
			part.r = insertByID(part.r, p)
		}
	})
	h.live++
}

func insertByID(s []postings.Posting, p postings.Posting) []postings.Posting {
	if n := len(s); n == 0 || s[n-1].ID < p.ID {
		return append(s, p)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].ID > p.ID })
	s = append(s, postings.Posting{})
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// delete locates every copy by binary search on id and flags it with the
// tombstone interval sentinel (id order must survive, so the dead bit is
// not usable here). It reports whether a live copy was found.
func (h *idHint) delete(p postings.Posting) bool {
	found := false
	hint.Assign(h.dom, p.Interval, func(level int, j uint32, original, _ bool) {
		part := h.levels[level].Get(j)
		if part == nil {
			return
		}
		div := part.o
		if !original {
			div = part.r
		}
		i := sort.Search(len(div), func(i int) bool { return div[i].ID >= p.ID })
		if i < len(div) && div[i].ID == p.ID && !postings.IsTombstone(div[i].Interval) {
			div[i].Interval = postings.Tombstone
			found = true
		}
	})
	if found {
		h.live--
	}
	return found
}

// rangeQuery runs Algorithm 2 over the id-sorted divisions: the partition
// pruning and compfirst/complast flags still apply, but every residual
// comparison is a scan (footnote 8 of the paper: id order trades slower
// range queries for mergeable intersections).
func (h *idHint) rangeQuery(q model.Interval, dst []model.ObjectID) []model.ObjectID {
	hint.Visit(h.dom, q, func(lv hint.LevelVisit) {
		h.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *idPart) {
			ob := lv.Oblige(j)
			dst = scanDivision(p.o, ob.CheckStart, ob.CheckEnd, q, dst)
			if ob.First {
				// Replicas never need the end check.
				dst = scanDivision(p.r, ob.CheckStart, false, q, dst)
			}
		})
	})
	return dst
}

// scanDivision appends live ids passing the requested comparisons.
func scanDivision(s []postings.Posting, checkStart, checkEnd bool, q model.Interval, dst []model.ObjectID) []model.ObjectID {
	for i := range s {
		if postings.IsTombstone(s[i].Interval) {
			continue
		}
		if checkStart && s[i].Interval.End < q.Start {
			continue
		}
		if checkEnd && s[i].Interval.Start > q.End {
			continue
		}
		dst = append(dst, s[i].ID)
	}
	return dst
}

// intersect computes C ∩ H[e] over the relevant divisions: every candidate
// already overlaps the query, so membership in any relevant division
// suffices (each candidate holding the element has exactly one entry among
// them, by HINT's duplicate-avoidance rule). The keep-mask merge preserves
// candidate order. keep must have len(cands) capacity.
func (h *idHint) intersect(q model.Interval, cands []model.ObjectID, keep []bool) []model.ObjectID {
	for i := range keep {
		keep[i] = false
	}
	hint.Visit(h.dom, q, func(lv hint.LevelVisit) {
		h.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *idPart) {
			markMatches(p.o, cands, keep)
			if j == lv.F {
				markMatches(p.r, cands, keep)
			}
		})
	})
	return compact(cands, keep)
}

// compact keeps the candidates whose keep flag is set, in place and in
// order.
func compact(cands []model.ObjectID, keep []bool) []model.ObjectID {
	w := 0
	for i, k := range keep {
		if k {
			cands[w] = cands[i]
			w++
		}
	}
	return cands[:w]
}

// markMatches marks keep[i] for every candidate with a live entry in
// div. Skewed sizes dispatch to galloping probes of the larger side;
// balanced sizes run the linear merge.
func markMatches(div []postings.Posting, cands []model.ObjectID, keep []bool) {
	switch {
	case len(div) > len(cands)*postings.GallopRatio:
		lo := 0
		for i, id := range cands {
			lo = postings.GallopLowerBoundList(div, id, lo)
			if lo == len(div) {
				return
			}
			if div[lo].ID == id {
				if !postings.IsTombstone(div[lo].Interval) {
					keep[i] = true
				}
				lo++
			}
		}
	case len(cands) > len(div)*postings.GallopRatio:
		lo := 0
		for j := range div {
			lo = postings.GallopLowerBound(cands, div[j].ID, lo)
			if lo == len(cands) {
				return
			}
			if cands[lo] == div[j].ID {
				if !postings.IsTombstone(div[j].Interval) {
					keep[lo] = true
				}
				lo++
			}
		}
	default:
		i, j := 0, 0
		for i < len(cands) && j < len(div) {
			switch {
			case cands[i] < div[j].ID:
				i++
			case cands[i] > div[j].ID:
				j++
			default:
				if !postings.IsTombstone(div[j].Interval) {
					keep[i] = true
				}
				i++
				j++
			}
		}
	}
}

// intersectBitmap is intersect with the positional keep-mask replaced
// by a packed bitmap: every live entry of a relevant division marks its
// id bit (idempotent across divisions, and ids beyond the candidate
// universe are ignored), then one compaction pass keeps the candidates
// whose bit is set. Results are identical to intersect; the win is that
// dense candidate sets are not re-walked per division. cands must be
// non-empty and ascending.
func (h *idHint) intersectBitmap(q model.Interval, cands []model.ObjectID, bm *postings.Bitmap) []model.ObjectID {
	bm.Reset(cands[len(cands)-1] + 1)
	hint.Visit(h.dom, q, func(lv hint.LevelVisit) {
		h.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *idPart) {
			markDivisionBitmap(p.o, bm)
			if j == lv.F {
				markDivisionBitmap(p.r, bm)
			}
		})
	})
	return bm.KeepSorted(cands)
}

// markDivisionBitmap sets the bit of every live entry in the division.
func markDivisionBitmap(div []postings.Posting, bm *postings.Bitmap) {
	for i := range div {
		if !postings.IsTombstone(div[i].Interval) {
			bm.Set(div[i].ID)
		}
	}
}

// entryCount returns stored entries including replicas and tombstones.
func (h *idHint) entryCount() int64 {
	var n int64
	for l := range h.levels {
		for _, p := range h.levels[l].Parts {
			n += int64(len(p.o) + len(p.r))
		}
	}
	return n
}

// sizeBytes estimates resident bytes.
func (h *idHint) sizeBytes() int64 {
	var total int64
	for l := range h.levels {
		total += int64(cap(h.levels[l].Keys))*4 + int64(cap(h.levels[l].Parts))*8
		for _, p := range h.levels[l].Parts {
			total += int64(cap(p.o)+cap(p.r))*16 + 48
		}
	}
	return total
}
