package tifhint

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/bruteforce"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// variants is one collection's three indexes, bulk-built or insert-built.
type variants struct {
	bin *BinaryIndex
	mrg *MergeIndex
	hyb *HybridIndex
}

func bulkBuilt(c *model.Collection, opts ...Option) variants {
	return variants{NewBinary(c, opts...), NewMerge(c, opts...), NewHybrid(c, opts...)}
}

// insertBuilt is what one Insert per object of objs builds on the domains,
// grids and slices of v — the construction the bulk kernel replaced.
func insertBuilt(v variants, dictSize int, objs []model.Object) variants {
	ref := variants{
		bin: &BinaryIndex{shared: v.bin.shared, hints: make([]*hint.Index, dictSize), freqs: make([]int, dictSize), m: v.bin.m},
		mrg: &MergeIndex{shared: v.mrg.shared, hints: make([]*idHint, dictSize), freqs: make([]int, dictSize), m: v.mrg.m},
	}
	hyb := *v.hyb
	hyb.hints, hyb.slices, hyb.freqs, hyb.live = make([]*idHint, dictSize), make([][][]slicePair, dictSize), make([]int, dictSize), 0
	ref.hyb = &hyb
	for _, o := range objs {
		ref.bin.Insert(o)
		ref.mrg.Insert(o)
		ref.hyb.Insert(o)
	}
	return ref
}

// allEntries visits every partition of a HINT: a query over the whole
// domain reaches every populated partition at every level.
func allEntries(h *hint.Index, fn func(p *hint.Partition)) {
	dom := h.Domain()
	h.VisitRelevant(model.NewInterval(dom.Min, dom.Max), func(p *hint.Partition, _ hint.Obligations) { fn(p) })
}

func subdivisions(p *hint.Partition) [4][]postings.Posting {
	return [4][]postings.Posting{p.OIn, p.OAft, p.RIn, p.RAft}
}

func byStartPosting(a, b postings.Posting) int {
	return cmp.Compare(a.Interval.Start, b.Interval.Start)
}

func byEndPosting(a, b postings.Posting) int {
	return cmp.Compare(a.Interval.End, b.Interval.End)
}

// multiset sorts a copy of s into one canonical order.
func multiset(s []postings.Posting) []postings.Posting {
	out := slices.Clone(s)
	slices.SortFunc(out, func(a, b postings.Posting) int {
		return cmp.Or(byStartPosting(a, b), byEndPosting(a, b), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// equalHints fails unless both element HINT tables hold, element by
// element, the same partitions with the same subdivisions as multisets,
// the bulk-built ones in their beneficial orders.
func equalHints(t *testing.T, got, want []*hint.Index) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("binary: %d element HINTs, want %d", len(got), len(want))
	}
	for e := range want {
		g, w := got[e], want[e]
		if (g == nil) != (w == nil) {
			t.Fatalf("binary element %d: HINT present %v, want %v", e, g != nil, w != nil)
		}
		if w == nil {
			continue
		}
		if g.PartitionCount() != w.PartitionCount() || g.Len() != w.Len() || g.EntryCount() != w.EntryCount() {
			t.Fatalf("binary element %d: %d partitions, %d live, %d entries; want %d, %d, %d", e,
				g.PartitionCount(), g.Len(), g.EntryCount(), w.PartitionCount(), w.Len(), w.EntryCount())
		}
		var gs, ws [][4][]postings.Posting
		allEntries(g, func(p *hint.Partition) { gs = append(gs, subdivisions(p)) })
		allEntries(w, func(p *hint.Partition) { ws = append(ws, subdivisions(p)) })
		for i := range ws {
			for d := range ws[i] {
				if !slices.Equal(multiset(gs[i][d]), multiset(ws[i][d])) {
					t.Fatalf("binary element %d partition %d subdivision %d: %v, want %v", e, i, d, gs[i][d], ws[i][d])
				}
			}
			sorted := slices.IsSortedFunc(gs[i][0], byStartPosting) && slices.IsSortedFunc(gs[i][1], byStartPosting) &&
				slices.IsSortedFunc(gs[i][2], byEndPosting)
			if !sorted {
				t.Fatalf("binary element %d partition %d: subdivisions out of their beneficial order", e, i)
			}
		}
	}
}

// eachDivision calls fn for every division of an id-sorted HINT table,
// named by element, level, partition and kind.
func eachDivision(hints []*idHint, fn func(name string, div []postings.Posting)) {
	for e, h := range hints {
		if h == nil {
			continue
		}
		for l := range h.levels {
			for i, p := range h.levels[l].Parts {
				name := fmt.Sprintf("element %d level %d partition %d", e, l, h.levels[l].Keys[i])
				fn(name+" originals", p.o)
				fn(name+" replicas", p.r)
			}
		}
	}
}

// equalIDHints fails unless both id-sorted HINT tables hold the same
// directories and the same divisions, entry for entry.
func equalIDHints(t *testing.T, name string, got, want []*idHint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d element HINTs, want %d", name, len(got), len(want))
	}
	for e := range want {
		g, w := got[e], want[e]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s element %d: HINT present %v, want %v", name, e, g != nil, w != nil)
		}
		if w == nil {
			continue
		}
		if g.live != w.live {
			t.Fatalf("%s element %d: live %d, want %d", name, e, g.live, w.live)
		}
		for l := range w.levels {
			if !slices.Equal(g.levels[l].Keys, w.levels[l].Keys) {
				t.Fatalf("%s element %d level %d: directory %v, want %v", name, e, l, g.levels[l].Keys, w.levels[l].Keys)
			}
			for i, wp := range w.levels[l].Parts {
				gp := g.levels[l].Parts[i]
				if !slices.Equal(gp.o, wp.o) || !slices.Equal(gp.r, wp.r) {
					t.Fatalf("%s element %d level %d partition %d: divisions %v/%v, want %v/%v",
						name, e, l, w.levels[l].Keys[i], gp.o, gp.r, wp.o, wp.r)
				}
			}
		}
	}
}

func equalSlices(t *testing.T, got, want [][][]slicePair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("hybrid: %d sliced lists, want %d", len(got), len(want))
	}
	for e := range want {
		if len(got[e]) != len(want[e]) {
			t.Fatalf("hybrid element %d: %d slices, want %d", e, len(got[e]), len(want[e]))
		}
		for s := range want[e] {
			if !slices.Equal(got[e][s], want[e][s]) {
				t.Fatalf("hybrid element %d slice %d: %v, want %v", e, s, got[e][s], want[e][s])
			}
		}
	}
}

// checkEqualsInsertBuilt compares the three variants, structurally, with
// what one Insert per object of objs builds, and returns the insert-built
// ones.
func checkEqualsInsertBuilt(t *testing.T, v variants, dictSize int, objs []model.Object) variants {
	t.Helper()
	ref := insertBuilt(v, dictSize, objs)
	equalHints(t, v.bin.hints, ref.bin.hints)
	equalIDHints(t, "merge", v.mrg.hints, ref.mrg.hints)
	equalIDHints(t, "hybrid", v.hyb.hints, ref.hyb.hints)
	equalSlices(t, v.hyb.slices, ref.hyb.slices)
	for _, pair := range []struct {
		name           string
		freqs, refFreq []int
		n, refN        int
		entries, refE  int64
	}{
		{"binary", v.bin.freqs, ref.bin.freqs, v.bin.Len(), ref.bin.Len(), v.bin.EntryCount(), ref.bin.EntryCount()},
		{"merge", v.mrg.freqs, ref.mrg.freqs, v.mrg.Len(), ref.mrg.Len(), v.mrg.EntryCount(), ref.mrg.EntryCount()},
		{"hybrid", v.hyb.freqs, ref.hyb.freqs, v.hyb.Len(), ref.hyb.Len(), v.hyb.EntryCount(), ref.hyb.EntryCount()},
	} {
		if !slices.Equal(pair.freqs, pair.refFreq) || pair.n != pair.refN || pair.entries != pair.refE {
			t.Fatalf("%s: freqs %v, Len %d, EntryCount %d; want %v, %d, %d",
				pair.name, pair.freqs, pair.n, pair.entries, pair.refFreq, pair.refN, pair.refE)
		}
	}
	return ref
}

// TestBulkEqualsInsertBuilt: the bulk kernel builds exactly the per-element
// hierarchies that one Insert per object builds — at grids from coarse to
// finer than the merge variant's tuned one, and on the inputs a two-pass
// build could get wrong.
func TestBulkEqualsInsertBuilt(t *testing.T) {
	cfg := testutil.DefaultConfig(31)
	one := &model.Collection{}
	one.AppendObject(model.NewInterval(5, 9), []model.ElemID{2, 0})
	smallDict := testutil.RandomCollection(cfg)
	smallDict.DictSize = 3
	opts := map[string][]Option{
		"m=2": {WithM(2)}, "m=5": {WithM(5)}, "m=10": {WithM(10)}, "m=11": {WithM(11)},
	}
	for name, c := range map[string]*model.Collection{
		"random":         testutil.RandomCollection(cfg),
		"empty":          {},
		"one object":     one,
		"small DictSize": smallDict,
	} {
		for optName, o := range opts {
			t.Run(name+"/"+optName, func(t *testing.T) {
				checkEqualsInsertBuilt(t, bulkBuilt(c, o...), c.DictSize, c.Objects)
			})
		}
	}
	// Ids descending and shuffled in collection order: the kernel orders
	// the objects by id itself; the reference inserts in id order.
	t.Run("unordered ids", func(t *testing.T) {
		ref := testutil.RandomCollection(cfg)
		c := &model.Collection{DictSize: ref.DictSize, Objects: slices.Clone(ref.Objects)}
		slices.Reverse(c.Objects)
		for _, o := range opts {
			checkEqualsInsertBuilt(t, bulkBuilt(c, o...), c.DictSize, ref.Objects)
		}
		rand.New(rand.NewSource(1)).Shuffle(len(c.Objects), func(i, j int) {
			c.Objects[i], c.Objects[j] = c.Objects[j], c.Objects[i]
		})
		checkEqualsInsertBuilt(t, bulkBuilt(c, WithM(6)), c.DictSize, ref.Objects)
		queries := testutil.RandomQueries(cfg, 100, 32)
		for _, b := range builders {
			testutil.CheckAgainstOracle(t, b.name+"/shuffled", b.build(c), c, queries)
		}
	})
}

// snapshot copies every division of the three variants and every slice
// list of the hybrid, by name.
func snapshot(v variants) map[string][]model.ObjectID {
	out := map[string][]model.ObjectID{}
	eachList(v, func(name string, ids []model.ObjectID) { out[name] = ids })
	return out
}

// eachList calls fn with the ids of every division and slice list of v.
func eachList(v variants, fn func(name string, ids []model.ObjectID)) {
	ids := func(s []postings.Posting) []model.ObjectID {
		out := make([]model.ObjectID, len(s))
		for i := range s {
			out[i] = s[i].ID
		}
		return out
	}
	for e, h := range v.bin.hints {
		if h == nil {
			continue
		}
		i := 0
		allEntries(h, func(p *hint.Partition) {
			for d, s := range subdivisions(p) {
				fn(fmt.Sprintf("binary element %d partition %d subdivision %d", e, i, d), ids(s))
			}
			i++
		})
	}
	eachDivision(v.mrg.hints, func(name string, div []postings.Posting) { fn("merge "+name, ids(div)) })
	eachDivision(v.hyb.hints, func(name string, div []postings.Posting) { fn("hybrid "+name, ids(div)) })
	for e := range v.hyb.slices {
		for s, l := range v.hyb.slices[e] {
			out := make([]model.ObjectID, len(l))
			for i := range l {
				out[i] = l[i].ID
			}
			fn(fmt.Sprintf("hybrid element %d slice %d", e, s), out)
		}
	}
}

func (v variants) insert(o model.Object) {
	v.bin.Insert(o)
	v.mrg.Insert(o)
	v.hyb.Insert(o)
}

func (v variants) delete(o model.Object) {
	v.bin.Delete(o)
	v.mrg.Delete(o)
	v.hyb.Delete(o)
}

// digests hashes each variant's answers to queries.
func (v variants) digests(queries []model.Query) [3]string {
	var out [3]string
	for i, ix := range []model.Querier{v.bin, v.mrg, v.hyb} {
		results := make([][]model.ObjectID, len(queries))
		for qi, q := range queries {
			results[qi] = ix.Query(q)
		}
		out[i] = testutil.WorkloadChecksum(results)
	}
	return out
}

// TestInsertAfterBulkKeepsNeighbours pins the hazard of carving divisions
// and slice lists from shared arenas: one cut without its capacity bound
// would let an Insert append into the next. The extra objects repeat
// stored objects' intervals and elements under fresh, larger ids, so each
// lands only in lists that already exist; afterwards every list, less the
// new ids, must be its snapshot. A mixed run of deletes and inserts then
// leaves the grown indexes answering as the insert-built ones do.
func TestInsertAfterBulkKeepsNeighbours(t *testing.T) {
	cfg := testutil.DefaultConfig(77)
	c := testutil.RandomCollection(cfg)
	v := variants{NewBinary(c, WithM(5)), NewMerge(c, WithM(5)), NewHybrid(c, WithM(5), WithSlices(10))}
	bytesBefore := [3]int64{v.bin.SizeBytes(), v.mrg.SizeBytes(), v.hyb.SizeBytes()}
	entriesBefore := [3]int64{v.bin.EntryCount(), v.mrg.EntryCount(), v.hyb.EntryCount()}
	before := snapshot(v)
	var extra []model.Object
	for i := 0; i < len(c.Objects); i += 5 {
		o := c.Objects[i]
		o.ID = model.ObjectID(len(c.Objects) + len(extra))
		extra = append(extra, o)
		v.insert(o)
	}
	lists := 0
	eachList(v, func(name string, ids []model.ObjectID) {
		lists++
		was, ok := before[name]
		if !ok {
			t.Fatalf("%s: list created by an insert of existing elements", name)
		}
		old := slices.DeleteFunc(slices.Clone(ids), func(id model.ObjectID) bool { return int(id) >= len(c.Objects) })
		if !slices.Equal(old, was) {
			t.Fatalf("%s: stored ids %v, were %v — an insert wrote into a neighbouring list", name, old, was)
		}
	})
	if lists != len(before) {
		t.Fatalf("%d lists after the inserts, %d before", lists, len(before))
	}

	all := &model.Collection{DictSize: c.DictSize, Objects: append(slices.Clone(c.Objects), extra...)}
	ref := checkEqualsInsertBuilt(t, v, c.DictSize, all.Objects)
	// A list an insert moved out of its arena is counted where it now
	// lives: no added entry goes uncounted. 12 B is the hybrid's slice pair.
	for i, ix := range []interface {
		SizeBytes() int64
		EntryCount() int64
	}{v.bin, v.mrg, v.hyb} {
		if got, min := ix.SizeBytes(), bytesBefore[i]+12*(ix.EntryCount()-entriesBefore[i]); got < min {
			t.Errorf("variant %d: SizeBytes %d after the inserts, want at least %d", i, got, min)
		}
	}

	// Deletes of stored objects interleaved with inserts of new ones, some
	// carrying elements no stored object has.
	rng := rand.New(rand.NewSource(78))
	oracle := bruteforce.New(all)
	fresh := testutil.RandomCollection(testutil.CollectionConfig{N: 100, DomainLo: 0, DomainHi: 6000, Dict: 40, MaxDesc: 4, Seed: 79})
	victims := rng.Perm(len(all.Objects))[:len(all.Objects)/4]
	for k := 0; k < len(victims) || k < len(fresh.Objects); k++ {
		if k < len(victims) {
			o := all.Objects[victims[k]]
			v.delete(o)
			ref.delete(o)
			oracle.Delete(o.ID)
		}
		if k < len(fresh.Objects) {
			o := fresh.Objects[k]
			o.ID = model.ObjectID(len(all.Objects) + k)
			v.insert(o)
			ref.insert(o)
			oracle.Insert(o)
		}
	}
	queries := testutil.RandomQueries(cfg, 200, 80)
	want := make([][]model.ObjectID, len(queries))
	for i, q := range queries {
		want[i] = oracle.Query(q)
	}
	got, refDigests, oracleDigest := v.digests(queries), ref.digests(queries), testutil.WorkloadChecksum(want)
	for i, name := range []string{"binary", "merge", "hybrid"} {
		if got[i] != refDigests[i] || got[i] != oracleDigest {
			t.Errorf("%s: digest %s, insert-built %s, oracle %s", name, got[i], refDigests[i], oracleDigest)
		}
	}
}

// TestBulkBuildIsTight: a bulk-built index has no slack for SizeBytes to
// miss or to count twice — every division and slice list is exactly as
// long as its capacity, so SizeBytes is a function of the partition, list
// and entry counts alone.
func TestBulkBuildIsTight(t *testing.T) {
	cfg := testutil.DefaultConfig(12)
	cfg.MaxDesc = 10
	c := testutil.RandomCollection(cfg)
	v := variants{NewBinary(c, WithM(6)), NewMerge(c, WithM(6)), NewHybrid(c, WithM(6), WithSlices(10))}
	tight := func(name string, n, capacity int) {
		if n != capacity {
			t.Fatalf("%s: cap %d, len %d", name, capacity, n)
		}
	}

	var parts, entries int64
	for e, h := range v.bin.hints {
		if h == nil {
			continue
		}
		parts += int64(h.PartitionCount())
		allEntries(h, func(p *hint.Partition) {
			for d, s := range subdivisions(p) {
				tight(fmt.Sprintf("binary element %d subdivision %d", e, d), len(s), cap(s))
				entries += int64(len(s))
			}
		})
	}
	// The per-level directories are tight too, or the formula misses.
	if want := parts*(4+8+96) + entries*16 + int64(len(v.bin.freqs))*8; v.bin.SizeBytes() != want || entries != v.bin.EntryCount() {
		t.Errorf("binary SizeBytes %d, want %d from %d partitions, %d entries", v.bin.SizeBytes(), want, parts, entries)
	}

	idHintBytes := func(name string, hints []*idHint) (bytes, entries int64) {
		for e, h := range hints {
			if h == nil {
				continue
			}
			for l := range h.levels {
				d := &h.levels[l]
				tight(fmt.Sprintf("%s element %d level %d directory", name, e, l), len(d.Keys), cap(d.Keys))
				tight(fmt.Sprintf("%s element %d level %d directory", name, e, l), len(d.Parts), cap(d.Parts))
				bytes += int64(len(d.Parts)) * (4 + 8 + 48)
			}
		}
		eachDivision(hints, func(div string, s []postings.Posting) {
			tight(name+" "+div, len(s), cap(s))
			entries += int64(len(s))
		})
		return bytes + entries*16, entries
	}
	bytes, entries := idHintBytes("merge", v.mrg.hints)
	if want := bytes + int64(len(v.mrg.freqs))*8; v.mrg.SizeBytes() != want || entries != v.mrg.EntryCount() {
		t.Errorf("merge SizeBytes %d, want %d from %d entries", v.mrg.SizeBytes(), want, entries)
	}

	bytes, entries = idHintBytes("hybrid", v.hyb.hints)
	for e := range v.hyb.slices {
		for s, l := range v.hyb.slices[e] {
			tight(fmt.Sprintf("hybrid element %d slice %d", e, s), len(l), cap(l))
			bytes += 24 + int64(len(l))*12
			entries += int64(len(l))
		}
	}
	if want := bytes + int64(len(v.hyb.freqs))*8; v.hyb.SizeBytes() != want || entries != v.hyb.EntryCount() {
		t.Errorf("hybrid SizeBytes %d, want %d from %d entries", v.hyb.SizeBytes(), want, entries)
	}
}

// TestAllocBudgetBuild pins what a bulk build allocates on a 500-object
// collection: a handful of buffers per build and a handful per populated
// element (its HINT, level table, directory, partition slab) —
// proportional to elements, not to the entries.
func TestAllocBudgetBuild(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 500, DomainLo: 0, DomainHi: 1 << 20, Dict: 100, MaxDesc: 6, Seed: 9}
	c := testutil.RandomCollection(cfg)
	v := bulkBuilt(c)
	elems := 0
	for _, f := range v.bin.freqs {
		if f > 0 {
			elems++
		}
	}
	t.Logf("%d populated elements; %d entries in binary, %d in merge, %d in hybrid", elems, v.bin.EntryCount(), v.mrg.EntryCount(), v.hyb.EntryCount())
	allocbudget.Gate(t, "tifhint/NewBinary", func() { NewBinary(c) })
	allocbudget.Gate(t, "tifhint/NewMerge", func() { NewMerge(c) })
	allocbudget.Gate(t, "tifhint/NewHybrid", func() { NewHybrid(c) })
}
