// Package sharding implements tIF+Sharding, the temporal inverted file of
// Anand et al. (Section 2.2): every postings list is horizontally grouped
// into shards ordered by interval start. Ideal shards also satisfy the
// staircase property (non-decreasing ends), which makes both boundaries of
// the temporally qualifying range binary-searchable; a cost-aware merge
// step then caps the shard count per list, trading the staircase guarantee
// of the merged shards for fewer probes. No entry is ever replicated, so
// no result de-duplication is needed.
package sharding

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/model"
	"repro/internal/postings"
)

// shard holds postings sorted by interval start. ideal marks shards that
// still satisfy the staircase property, enabling the second binary search.
type shard struct {
	entries []postings.Posting // sorted by Interval.Start
	ideal   bool
}

// Index is the tIF+Sharding index.
type Index struct {
	maxShards int
	shards    [][]shard // per element
	freqs     []int
	live      int
}

// Option configures New.
type Option func(*config)

type config struct {
	maxShards int
}

// DefaultMaxShards caps the shards per postings list after cost-aware
// merging. Anand et al. observe that the number of ideal shards can be
// overwhelming; a small two-digit budget retains most of the pruning.
const DefaultMaxShards = 16

// WithMaxShards sets the per-list shard budget (0 keeps every ideal shard).
func WithMaxShards(n int) Option {
	return func(c *config) { c.maxShards = n }
}

// New builds a tIF+Sharding index over a collection in bulk. The objects
// are sorted once by (start, end, id) and scattered in that order over
// their elements' lists in one exactly-sized arena, so every list is born
// in shard order; builder.shard then shards each list in place. Every
// shard is a view with cap == len, and all lists' shard headers share
// one array.
func New(c *model.Collection, opts ...Option) *Index {
	cfg := config{maxShards: DefaultMaxShards}
	for _, o := range opts {
		o(&cfg)
	}
	objs, freqs := c.IDOrder()
	order := make([]sortKey, len(objs))
	for i := range objs {
		order[i] = sortKey{objs[i].Interval, int32(i)}
	}
	slices.SortFunc(order, func(a, b sortKey) int {
		switch {
		case a.iv.Start != b.iv.Start:
			return cmp.Compare(a.iv.Start, b.iv.Start)
		case a.iv.End != b.iv.End:
			return cmp.Compare(a.iv.End, b.iv.End)
		}
		return cmp.Compare(a.i, b.i) // objs are in id order
	})
	arena, ends := postings.ByElement(freqs, len(order), func(i int) *model.Object { return &objs[order[i].i] })
	// Once a list is sharded, its end in the arena becomes the end of its
	// shard headers.
	var b builder
	start := 0
	for e, end := range ends {
		b.shard(arena[start:end], cfg.maxShards)
		ends[e], start = len(b.shards), end
	}
	ix := &Index{maxShards: cfg.maxShards, shards: postings.Carve(slices.Clone(b.shards), ends), freqs: freqs, live: len(objs)}
	assertShards(ix.shards, "New")
	return ix
}

// sortKey is an object's interval and position, the order New sorts by.
type sortKey struct {
	iv model.Interval
	i  int32
}

// builder holds the scratch builder.shard reuses from one list to the next.
type builder struct {
	shards []shard            // every list's shards so far, in order
	last   []model.Timestamp  // per ideal shard: the end of its last entry
	size   []int              // per shard position: entries, then write cursor
	ideal  []bool             // per shard position
	pos    []int              // per ideal shard: its position after merging
	at     []int32            // per entry: its ideal shard
	tmp    []postings.Posting // the list before the scatter
}

// shard lays out a list sorted by (start, end, id) in place as its shards
// and appends them to b.shards, planning on counts alone:
//   - Ideal shards by first fit: an entry joins the first shard whose last
//     end does not exceed its end, or opens a new one below every last end.
//     Either way last ends keep strictly decreasing, so first fit is a
//     binary search.
//   - Cost-aware merging (Anand et al.): while over budget (0 keeps every
//     ideal shard), the two smallest shards merge at the first one's
//     position and lose the staircase property. Only sizes decide.
//
// Every entry is then scattered once to its final shard, in list order.
func (b *builder) shard(list []postings.Posting, budget int) {
	b.last, b.size, b.at = b.last[:0], b.size[:0], slices.Grow(b.at[:0], len(list))[:len(list)]
	for k := range list {
		end := list[k].Interval.End
		i, j := 0, len(b.last)
		for i < j {
			if h := int(uint(i+j) >> 1); b.last[h] > end {
				i = h + 1
			} else {
				j = h
			}
		}
		if i == len(b.last) {
			b.last, b.size = append(b.last, end), append(b.size, 0)
		}
		b.last[i] = end
		b.size[i]++
		b.at[k] = int32(i)
	}
	b.ideal, b.pos = b.ideal[:0], b.pos[:0]
	for j := range b.size {
		b.ideal, b.pos = append(b.ideal, true), append(b.pos, j)
	}
	for budget > 0 && len(b.size) > budget {
		x, y := smallestTwo(b.size)
		b.size[x] += b.size[y]
		b.ideal[x] = false
		b.size, b.ideal = slices.Delete(b.size, y, y+1), slices.Delete(b.ideal, y, y+1)
		for j, p := range b.pos {
			if p == y {
				b.pos[j] = x
			} else if p > y {
				b.pos[j] = p - 1
			}
		}
	}
	off := 0
	for x, n := range b.size {
		b.shards = append(b.shards, shard{entries: list[off : off+n : off+n], ideal: b.ideal[x]})
		b.size[x], off = off, off+n
	}
	b.tmp = append(b.tmp[:0], list...)
	for k, p := range b.tmp {
		x := b.pos[b.at[k]]
		list[b.size[x]] = p
		b.size[x]++
	}
}

// smallestTwo returns the positions, ascending, of the two smallest sizes;
// among equal sizes the earlier position wins.
func smallestTwo(size []int) (a, b int) {
	a, b = 0, 1
	if size[b] < size[a] {
		a, b = b, a
	}
	for i := 2; i < len(size); i++ {
		n := size[i]
		if n < size[a] {
			b = a
			a = i
		} else if n < size[b] {
			b = i
		}
	}
	if a > b {
		a, b = b, a
	}
	return a, b
}

// Insert adds the object to each element's shard set with a positioned
// insert that preserves start order. It prefers a shard where the
// staircase property survives (predecessor end <= o.end <= successor
// end); failing that, the smallest shard takes the entry and drops its
// ideal flag. No shard is ever created or re-merged on the update path —
// the cost-aware budget only matters at bulk build.
func (ix *Index) Insert(o model.Object) {
	for _, e := range o.Elems {
		ix.growTo(int(e) + 1)
		p := postings.Posting{ID: o.ID, Interval: o.Interval}
		if len(ix.shards[e]) == 0 {
			ix.shards[e] = []shard{{entries: []postings.Posting{p}, ideal: true}}
			ix.freqs[e]++
			continue
		}
		target, pos := -1, 0
		smallest := 0
		for i := range ix.shards[e] {
			s := &ix.shards[e][i]
			if len(s.entries) < len(ix.shards[e][smallest].entries) {
				smallest = i
			}
			k := sort.Search(len(s.entries), func(k int) bool {
				return s.entries[k].Interval.Start > p.Interval.Start
			})
			if !s.ideal {
				continue
			}
			if k > 0 && s.entries[k-1].Interval.End > p.Interval.End {
				continue
			}
			if k < len(s.entries) && s.entries[k].Interval.End < p.Interval.End {
				continue
			}
			target, pos = i, k
			break
		}
		if target == -1 {
			target = smallest
			s := &ix.shards[e][target]
			pos = sort.Search(len(s.entries), func(k int) bool {
				return s.entries[k].Interval.Start > p.Interval.Start
			})
			s.ideal = false
		}
		s := &ix.shards[e][target]
		s.entries = append(s.entries, postings.Posting{})
		copy(s.entries[pos+1:], s.entries[pos:])
		s.entries[pos] = p
		ix.freqs[e]++
	}
	ix.live++
}

func (ix *Index) growTo(n int) {
	for len(ix.shards) < n {
		ix.shards = append(ix.shards, nil)
		ix.freqs = append(ix.freqs, 0)
	}
}

// Delete locates the object's entry in every shard of its element lists
// (binary search on start, then a scan over the equal-start run) and sets
// the dead bit, preserving the start order the impact probes rely on.
func (ix *Index) Delete(o model.Object) {
	found := false
	for _, e := range o.Elems {
		if int(e) >= len(ix.shards) {
			continue
		}
		hit := false
		for i := range ix.shards[e] {
			s := &ix.shards[e][i]
			lo := sort.Search(len(s.entries), func(k int) bool {
				return s.entries[k].Interval.Start >= o.Interval.Start
			})
			for k := lo; k < len(s.entries) && s.entries[k].Interval.Start == o.Interval.Start; k++ {
				if postings.LiveID(s.entries[k].ID) == o.ID && !postings.IsDead(s.entries[k].ID) {
					s.entries[k].ID = postings.MarkDead(s.entries[k].ID)
					hit = true
				}
			}
		}
		if hit {
			ix.freqs[e]--
			found = true
		}
	}
	if found {
		ix.live--
	}
}

// Len returns the number of live objects.
func (ix *Index) Len() int { return ix.live }

// window returns the index range [lo, cut) of s outside which no entry
// can both start in [from, to] and overlap q: entries start-ordered put
// those starting before from ahead of lo and those starting after to from
// cut on (the impact-list probe), and in an ideal shard the staircase
// (non-decreasing ends) puts every entry ending before q.Start ahead of
// lo too. In a merged shard the range still holds entries that end
// before q.Start.
func (s *shard) window(q model.Interval, from, to model.Timestamp) (lo, cut int) {
	cut = sort.Search(len(s.entries), func(k int) bool {
		return s.entries[k].Interval.Start > to
	})
	lo = sort.Search(cut, func(k int) bool {
		return s.entries[k].Interval.Start >= from
	})
	if s.ideal {
		lo += sort.Search(cut-lo, func(k int) bool {
			return s.entries[lo+k].Interval.End >= q.Start
		})
	}
	return lo, cut
}

// gather appends the ids of live entries of element e whose interval
// overlaps q, probing each shard, and returns the span of their starts.
func (ix *Index) gather(e model.ElemID, q model.Interval, dst []model.ObjectID) ([]model.ObjectID, model.Timestamp, model.Timestamp) {
	from, to := model.Timestamp(math.MaxInt64), model.Timestamp(math.MinInt64)
	if int(e) >= len(ix.shards) {
		return dst, from, to
	}
	for i := range ix.shards[e] {
		s := &ix.shards[e][i]
		for k, cut := s.window(q, math.MinInt64, q.End); k < cut; k++ {
			if p := &s.entries[k]; (s.ideal || p.Interval.End >= q.Start) && !postings.IsDead(p.ID) {
				dst = append(dst, p.ID)
				from, to = min(from, p.Interval.Start), max(to, p.Interval.Start)
			}
		}
	}
	return dst, from, to
}

// mark runs the pass of k over element e's shard windows. A candidate
// overlaps q and starts in [from, to], and its entry for e has the same
// interval, so the entry lies inside its shard's window; the windows are
// start-ordered, so k marks a bitmap. A dead entry's id carries the dead
// bit, far past every candidate, and any other window entry that is no
// candidate's sets a bit no candidate reads, so no entry needs a test.
func (ix *Index) mark(e model.ElemID, q model.Interval, from, to model.Timestamp, k *postings.Later) {
	if int(e) >= len(ix.shards) {
		return
	}
	for i := range ix.shards[e] {
		s := &ix.shards[e][i]
		lo, cut := s.window(q, from, to)
		postings.Mark(k, s.entries[lo:cut])
	}
}

// Query evaluates a time-travel IR query. Shards are start-ordered, so the
// temporally qualifying ids of the least frequent element are gathered and
// sorted once; every further element, in ascending frequency order, keeps
// the candidates found in its shard windows, cut to the candidates' starts
// (mark). Anand et al. look each entry up in the sorted candidates; the
// bit test changes the speed, not the result.
func (ix *Index) Query(q model.Query) []model.ObjectID {
	if len(q.Elems) == 0 {
		return nil
	}
	var planBuf [8]model.ElemID
	plan := dict.PlanOrder(planBuf[:0], q.Elems, ix.freqs)
	cands, from, to := ix.gather(plan[0], q.Interval, nil)
	model.SortIDs(cands)
	k := postings.GetLater()
	defer postings.PutLater(k)
	for _, e := range plan[1:] {
		if len(cands) == 0 {
			return nil
		}
		k.Begin(cands, false)
		ix.mark(e, q.Interval, from, to, k)
		cands = k.Keep(cands[:0])
	}
	return cands
}

// SizeBytes estimates resident size: 16-byte entries (no replication) plus
// shard headers.
func (ix *Index) SizeBytes() int64 {
	var total int64
	for e := range ix.shards {
		for i := range ix.shards[e] {
			total += int64(cap(ix.shards[e][i].entries))*16 + 32
		}
	}
	return total + int64(len(ix.freqs))*8
}

// ShardCount returns the number of shards for an element (testing hook).
func (ix *Index) ShardCount(e model.ElemID) int {
	if int(e) >= len(ix.shards) {
		return 0
	}
	return len(ix.shards[e])
}

// Ideal reports whether shard i of element e still satisfies the staircase
// property (testing hook).
func (ix *Index) Ideal(e model.ElemID, i int) bool { return ix.shards[e][i].ideal }
