// Package hint implements HINT, the state-of-the-art main-memory interval
// index of Christodoulou, Bouros & Mamoulis (Section 2.3 of the paper), in
// the subs+sort configuration the paper benchmarks: a hierarchy of 2^l
// uniform partitions per level l in [0, m], each partition split into the
// four subdivisions O_in, O_aft, R_in, R_aft with beneficial sorting, and
// bottom-up range queries that confine residual endpoint comparisons to at
// most four partitions (Algorithm 2).
//
// Discretized endpoints route intervals to partitions; the original
// timestamps are stored and compared, so results are exact at any grid
// resolution. Per level, only populated partitions are materialized (a
// sorted directory — the skewness & sparsity handling of the original
// paper), so a sparse per-element HINT with a handful of intervals costs a
// handful of allocations even at large m.
package hint

import (
	"sort"

	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/postings"
)

// Partition is one populated node of the hierarchy, split into the four
// subdivisions of the optimized HINT. Sorting invariants: OIn and OAft by
// interval start, RIn by interval end, RAft unsorted (never compared).
type Partition struct {
	OIn  []postings.Posting // originals ending inside the partition
	OAft []postings.Posting // originals ending after the partition
	RIn  []postings.Posting // replicas ending inside the partition
	RAft []postings.Posting // replicas ending after the partition
}

// entryCount returns the number of stored entries (including dead ones).
func (p *Partition) entryCount() int {
	return len(p.OIn) + len(p.OAft) + len(p.RIn) + len(p.RAft)
}

// Directory is the sorted per-level map of populated partitions — HINT's
// sparsity handling — shared by every index built on the hierarchy:
// Keys holds partition indices ascending, Parts the matching partitions.
type Directory[P any] struct {
	Keys  []uint32
	Parts []*P
}

// LowerBound returns the first index of the ascending s whose value is at
// least x, or len(s). It is the manual binary search behind every
// directory lookup: a sort.Search closure in its place dominated query
// cost.
func LowerBound[T ~uint32](s []T, x T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns partition j, or nil when it is not populated.
func (d *Directory[P]) Get(j uint32) *P {
	i := LowerBound(d.Keys, j)
	if i < len(d.Keys) && d.Keys[i] == j {
		return d.Parts[i]
	}
	return nil
}

// GetOrCreate returns partition j, inserting an empty one in key order
// when it is not populated.
func (d *Directory[P]) GetOrCreate(j uint32) *P {
	i := LowerBound(d.Keys, j)
	if i < len(d.Keys) && d.Keys[i] == j {
		return d.Parts[i]
	}
	d.Keys = append(d.Keys, 0)
	d.Parts = append(d.Parts, nil)
	copy(d.Keys[i+1:], d.Keys[i:])
	copy(d.Parts[i+1:], d.Parts[i:])
	d.Keys[i] = j
	p := new(P)
	d.Parts[i] = p
	return p
}

// ForRange calls fn for every populated partition with index in [f, l].
func (d *Directory[P]) ForRange(f, l uint32, fn func(j uint32, p *P)) {
	for i := LowerBound(d.Keys, f); i < len(d.Keys) && d.Keys[i] <= l; i++ {
		fn(d.Keys[i], d.Parts[i])
	}
}

// Index is a HINT over intervals tagged with object ids.
type Index struct {
	dom    domain.Domain
	levels []Directory[Partition] // levels[l] for l in [0, m]
	live   int
}

// New builds an empty HINT over the given discretization domain.
func New(dom domain.Domain) *Index {
	return &Index{dom: dom, levels: make([]Directory[Partition], dom.M+1)}
}

// Domain returns the discretization domain.
func (ix *Index) Domain() domain.Domain { return ix.dom }

// M returns the number of hierarchy bits.
func (ix *Index) M() int { return ix.dom.M }

// Len returns the number of live intervals.
func (ix *Index) Len() int { return ix.live }

// visitAssignments runs the HINT assignment of interval iv for this
// index's domain.
func (ix *Index) visitAssignments(iv model.Interval, fn func(level int, j uint32, original, endsInside bool)) {
	Assign(ix.dom, iv, fn)
}

// Assign runs the HINT assignment: it decomposes the discretized interval
// into the smallest set of partitions covering it (at most two per level,
// walking bottom-up and halving), calling fn for each with the
// original/replica classification (does the interval start in this
// partition?) and the ends-inside flag (the O_in/O_aft, R_in/R_aft split).
// Composite indices (the tIF+HINT variants and irHINT) share this routing
// while supplying their own partition payloads.
func Assign(dom domain.Domain, iv model.Interval, fn func(level int, j uint32, original, endsInside bool)) {
	lo, hi := dom.DiscInterval(iv)
	inside := func(level int, j uint32) bool {
		_, extentHi := dom.PartitionExtent(level, j)
		return hi <= extentHi
	}
	a, b := lo, hi
	for level := dom.M; level >= 0; level-- {
		if a == b {
			fn(level, a, dom.Prefix(level, lo) == a, inside(level, a))
			return
		}
		if a%2 == 1 {
			fn(level, a, dom.Prefix(level, lo) == a, inside(level, a))
			// Bounds: a is odd so a+1 <= b <= Cells()-1 (a < b here: a == b returned above)
			a++
		}
		if b%2 == 0 {
			fn(level, b, dom.Prefix(level, lo) == b, inside(level, b))
			// Bounds: b is even and > a >= 0, so b-1 >= 0
			b--
		}
		if a > b {
			return
		}
		// Bounds: halving to the parent level keeps a in [0, 2^(level-1)-1]
		a >>= 1
		b >>= 1 // same halving argument as a
	}
}

// Insert adds one interval, maintaining subdivision order with binary-
// search insertion (the update path of Section 5.5).
func (ix *Index) Insert(p postings.Posting) {
	assertNoTombstoneEntries([]postings.Posting{p}, "Insert")
	ix.visitAssignments(p.Interval, func(level int, j uint32, original, endsInside bool) {
		part := ix.levels[level].GetOrCreate(j)
		switch {
		case original && endsInside:
			part.OIn = insertByStart(part.OIn, p)
		case original:
			part.OAft = insertByStart(part.OAft, p)
		case endsInside:
			part.RIn = insertByEnd(part.RIn, p)
		default:
			part.RAft = append(part.RAft, p)
		}
		assertPartitionSorted(part, "Insert")
	})
	ix.live++
}

func insertByStart(s []postings.Posting, p postings.Posting) []postings.Posting {
	i := sort.Search(len(s), func(i int) bool { return s[i].Interval.Start > p.Interval.Start })
	s = append(s, postings.Posting{})
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

func insertByEnd(s []postings.Posting, p postings.Posting) []postings.Posting {
	i := sort.Search(len(s), func(i int) bool { return s[i].Interval.End > p.Interval.End })
	s = append(s, postings.Posting{})
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// Delete locates every copy of the entry (re-running the assignment) and
// sets the dead bit, leaving sort orders intact (logical deletion with
// tombstones, Section 5.5). It reports whether any copy was found live.
func (ix *Index) Delete(p postings.Posting) bool {
	found := false
	ix.visitAssignments(p.Interval, func(level int, j uint32, original, endsInside bool) {
		part := ix.levels[level].Get(j)
		if part == nil {
			return
		}
		switch {
		case original && endsInside:
			found = killByStart(part.OIn, p) || found
		case original:
			found = killByStart(part.OAft, p) || found
		case endsInside:
			found = killByEnd(part.RIn, p) || found
		default:
			found = killScan(part.RAft, p) || found
		}
	})
	if found {
		ix.live--
	}
	return found
}

func killByStart(s []postings.Posting, p postings.Posting) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Interval.Start >= p.Interval.Start })
	for ; i < len(s) && s[i].Interval.Start == p.Interval.Start; i++ {
		if postings.LiveID(s[i].ID) == p.ID && !postings.IsDead(s[i].ID) {
			s[i].ID = postings.MarkDead(s[i].ID)
			return true
		}
	}
	return false
}

func killByEnd(s []postings.Posting, p postings.Posting) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Interval.End >= p.Interval.End })
	for ; i < len(s) && s[i].Interval.End == p.Interval.End; i++ {
		if postings.LiveID(s[i].ID) == p.ID && !postings.IsDead(s[i].ID) {
			s[i].ID = postings.MarkDead(s[i].ID)
			return true
		}
	}
	return false
}

func killScan(s []postings.Posting, p postings.Posting) bool {
	for i := range s {
		if postings.LiveID(s[i].ID) == p.ID && !postings.IsDead(s[i].ID) {
			s[i].ID = postings.MarkDead(s[i].ID)
			return true
		}
	}
	return false
}

// EntryCount returns the total number of stored entries across all
// partitions — the replication the size experiments track.
func (ix *Index) EntryCount() int64 {
	var total int64
	for l := range ix.levels {
		for _, p := range ix.levels[l].Parts {
			total += int64(p.entryCount())
		}
	}
	return total
}

// SizeBytes estimates resident size: 16-byte entries, subdivision headers
// and the per-level directories.
func (ix *Index) SizeBytes() int64 {
	var total int64
	for l := range ix.levels {
		total += int64(cap(ix.levels[l].Keys))*4 + int64(cap(ix.levels[l].Parts))*8
		for _, p := range ix.levels[l].Parts {
			total += int64(cap(p.OIn)+cap(p.OAft)+cap(p.RIn)+cap(p.RAft))*16 + 96
		}
	}
	return total
}

// PartitionCount returns the number of populated partitions (testing hook).
func (ix *Index) PartitionCount() int {
	n := 0
	for l := range ix.levels {
		n += len(ix.levels[l].Keys)
	}
	return n
}
