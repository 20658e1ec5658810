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
			part.o = postings.InsertByID(part.o, p)
		} else {
			part.r = postings.InsertByID(part.r, p)
		}
	})
	h.live++
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

// intersect keeps the candidates that hold the element, in one pass of
// the later-element kernel over the relevant divisions: every candidate
// already overlaps the query, so membership in any relevant division
// suffices (each candidate holding the element has exactly one entry
// among them, by HINT's duplicate-avoidance rule). cands must be
// non-empty and ascending; they are compacted in place.
func (h *idHint) intersect(q model.Interval, k *postings.Later, cands []model.ObjectID) []model.ObjectID {
	k.Begin(cands, true)
	hint.Visit(h.dom, q, func(lv hint.LevelVisit) {
		h.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *idPart) {
			postings.Mark(k, p.o)
			if j == lv.F {
				postings.Mark(k, p.r)
			}
		})
	})
	return k.Keep(cands[:0])
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
