package hint

import (
	"sort"

	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

// Obligations captures the residual comparisons Algorithm 2 prescribes for
// one relevant partition during the bottom-up traversal.
//
// For originals: CheckStart means "verify q.start <= o.end" and CheckEnd
// means "verify o.start <= q.end". Replicas are consulted only at the first
// relevant partition of a level, need CheckStart exactly when the originals
// do and never need CheckEnd (a replica starts before the partition that
// contains q.start, hence before q.end).
type Obligations struct {
	First      bool // j == f: include replica subdivisions
	CheckStart bool
	CheckEnd   bool
}

// LevelVisit describes one hierarchy level of the traversal: the range of
// relevant partitions [F, L] and the current comparison flags.
type LevelVisit struct {
	Level     int
	F, L      uint32
	CompFirst bool
	CompLast  bool
}

// Oblige derives the comparison obligations for relevant partition j of
// this level, encoding the case analysis of Algorithm 2 lines 8-22.
func (lv LevelVisit) Oblige(j uint32) Obligations {
	switch {
	case j == lv.F:
		return Obligations{
			First:      true,
			CheckStart: lv.CompFirst,
			CheckEnd:   lv.F == lv.L && lv.CompLast,
		}
	case j == lv.L:
		return Obligations{CheckEnd: lv.CompLast}
	default:
		return Obligations{}
	}
}

// Visit runs the bottom-up traversal of Algorithm 2 over an arbitrary
// partition store: for each level from m down to 0 it reports the relevant
// partition range and comparison flags, updating the compfirst/complast
// flags by the parity rule (lines 23-26). Composite indices (irHINT, the
// tIF+HINT variants) share this walk while supplying their own per-
// partition payloads.
func Visit(dom domain.Domain, q model.Interval, fn func(LevelVisit)) {
	qlo, qhi := dom.DiscInterval(q)
	compFirst, compLast := true, true
	for level := dom.M; level >= 0; level-- {
		f := dom.Prefix(level, qlo)
		l := dom.Prefix(level, qhi)
		fn(LevelVisit{Level: level, F: f, L: l, CompFirst: compFirst, CompLast: compLast})
		if f%2 == 0 {
			compFirst = false
		}
		if l%2 == 1 {
			compLast = false
		}
	}
}

// RangeQuery returns the ids of all live intervals overlapping q
// (Algorithm 2 with the subs+sort subdivisions). The output order is the
// traversal order, not id order; each id appears exactly once.
func (ix *Index) RangeQuery(q model.Interval, dst []model.ObjectID) []model.ObjectID {
	Visit(ix.dom, q, func(lv LevelVisit) {
		ix.levels[lv.Level].forRange(lv.F, lv.L, func(j uint32, p *Partition) {
			dst = reportPartition(p, lv.Oblige(j), q, dst)
		})
	})
	return dst
}

// reportPartition appends the qualifying live ids of one partition given
// its comparison obligations.
func reportPartition(p *Partition, ob Obligations, q model.Interval, dst []model.ObjectID) []model.ObjectID {
	// Originals.
	switch {
	case ob.CheckStart && ob.CheckEnd:
		// O_in: start-prefix via binary search, per-entry end check.
		dst = appendStartPrefixEndCheck(p.OIn, q, dst)
		// O_aft ends after the partition holding q.start: end check free.
		dst = appendStartPrefix(p.OAft, q.End, dst)
	case ob.CheckStart:
		// Entries may start anywhere up to partition end <= q.end: start
		// order does not bound the end check, so O_in is scanned.
		dst = appendEndCheck(p.OIn, q.Start, dst)
		dst = appendAll(p.OAft, dst)
	case ob.CheckEnd:
		dst = appendStartPrefix(p.OIn, q.End, dst)
		dst = appendStartPrefix(p.OAft, q.End, dst)
	default:
		dst = appendAll(p.OIn, dst)
		dst = appendAll(p.OAft, dst)
	}
	if !ob.First {
		return dst
	}
	// Replicas: never need the end check.
	if ob.CheckStart {
		dst = appendEndSuffix(p.RIn, q.Start, dst)
	} else {
		dst = appendAll(p.RIn, dst)
	}
	return appendAll(p.RAft, dst)
}

// VisitRelevant walks the relevant partitions of a range query bottom-up,
// reporting each populated partition with its comparison obligations.
// Composite indices use this to run Algorithm 3-style probes against the
// subdivisions directly.
func (ix *Index) VisitRelevant(q model.Interval, fn func(p *Partition, ob Obligations)) {
	Visit(ix.dom, q, func(lv LevelVisit) {
		ix.levels[lv.Level].forRange(lv.F, lv.L, func(j uint32, p *Partition) {
			fn(p, lv.Oblige(j))
		})
	})
}

// RangeQueryFilteredBitmap is RangeQuery restricted to the ids set in
// bm — the candidate probe of Algorithm 3, with the membership test a
// packed-bitmap word probe: O(1) per entry instead of the paper's binary
// search into the sorted candidate set. bm is only read, so concurrent
// probes may share it.
func (ix *Index) RangeQueryFilteredBitmap(q model.Interval, bm *postings.Bitmap, dst []model.ObjectID) []model.ObjectID {
	ix.VisitRelevant(q, func(p *Partition, ob Obligations) {
		dst = reportPartitionBitmap(p, ob, q, bm, dst)
	})
	return dst
}

// reportPartitionBitmap mirrors reportPartition with a bitmap membership
// probe per id.
func reportPartitionBitmap(p *Partition, ob Obligations, q model.Interval, bm *postings.Bitmap, dst []model.ObjectID) []model.ObjectID {
	emit := func(s []postings.Posting, lo, cut int, needEnd bool) {
		for i := lo; i < cut; i++ {
			if needEnd && s[i].Interval.End < q.Start {
				continue
			}
			if !postings.IsDead(s[i].ID) && bm.Contains(s[i].ID) {
				dst = append(dst, s[i].ID)
			}
		}
	}
	startCut := func(s []postings.Posting) int {
		return sort.Search(len(s), func(i int) bool { return s[i].Interval.Start > q.End })
	}
	endLo := func(s []postings.Posting) int {
		return sort.Search(len(s), func(i int) bool { return s[i].Interval.End >= q.Start })
	}
	switch {
	case ob.CheckStart && ob.CheckEnd:
		emit(p.OIn, 0, startCut(p.OIn), true)
		emit(p.OAft, 0, startCut(p.OAft), false)
	case ob.CheckStart:
		emit(p.OIn, 0, len(p.OIn), true)
		emit(p.OAft, 0, len(p.OAft), false)
	case ob.CheckEnd:
		emit(p.OIn, 0, startCut(p.OIn), false)
		emit(p.OAft, 0, startCut(p.OAft), false)
	default:
		emit(p.OIn, 0, len(p.OIn), false)
		emit(p.OAft, 0, len(p.OAft), false)
	}
	if !ob.First {
		return dst
	}
	if ob.CheckStart {
		emit(p.RIn, endLo(p.RIn), len(p.RIn), false)
	} else {
		emit(p.RIn, 0, len(p.RIn), false)
	}
	emit(p.RAft, 0, len(p.RAft), false)
	return dst
}

// appendAll copies every live id.
func appendAll(s []postings.Posting, dst []model.ObjectID) []model.ObjectID {
	for i := range s {
		if !postings.IsDead(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}

// appendStartPrefix copies live ids from the start-sorted prefix with
// Start <= qEnd.
func appendStartPrefix(s []postings.Posting, qEnd model.Timestamp, dst []model.ObjectID) []model.ObjectID {
	cut := sort.Search(len(s), func(i int) bool { return s[i].Interval.Start > qEnd })
	for i := 0; i < cut; i++ {
		if !postings.IsDead(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}

// appendStartPrefixEndCheck is appendStartPrefix plus a per-entry
// End >= q.Start test (the first==last partition case for O_in).
func appendStartPrefixEndCheck(s []postings.Posting, q model.Interval, dst []model.ObjectID) []model.ObjectID {
	cut := sort.Search(len(s), func(i int) bool { return s[i].Interval.Start > q.End })
	for i := 0; i < cut; i++ {
		if s[i].Interval.End >= q.Start && !postings.IsDead(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}

// appendEndCheck scans s copying live ids with End >= qStart.
func appendEndCheck(s []postings.Posting, qStart model.Timestamp, dst []model.ObjectID) []model.ObjectID {
	for i := range s {
		if s[i].Interval.End >= qStart && !postings.IsDead(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}

// appendEndSuffix copies live ids from the end-sorted suffix with
// End >= qStart (the R_in case).
func appendEndSuffix(s []postings.Posting, qStart model.Timestamp, dst []model.ObjectID) []model.ObjectID {
	lo := sort.Search(len(s), func(i int) bool { return s[i].Interval.End >= qStart })
	for i := lo; i < len(s); i++ {
		if !postings.IsDead(s[i].ID) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}
