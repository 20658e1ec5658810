package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/hint"
	"repro/internal/model"
	"repro/internal/testutil"
)

// invFile is one division's inverted file, whichever the variant.
type invFile[T any] struct {
	elems []model.ElemID
	lists [][]T
}

// perfEntry is one irHINT-perf list entry, read from its division's two
// columns.
type perfEntry struct {
	id   model.ObjectID
	span model.Interval
}

// perfLists reads every list of a perf division out of its runs and
// columns, each into a list of its own.
func perfLists(d *divIF) invFile[perfEntry] {
	f := invFile[perfEntry]{elems: d.elems, lists: make([][]perfEntry, len(d.runs))}
	for i, r := range d.runs {
		f.lists[i] = make([]perfEntry, r.n)
		for k := range f.lists[i] {
			f.lists[i][k] = perfEntry{d.ids[int(r.off)+k], d.spans[int(r.off)+k]}
		}
	}
	return f
}

func perfFiles(p *perfPart) [2]invFile[perfEntry] {
	return [2]invFile[perfEntry]{perfLists(&p.o), perfLists(&p.r)}
}

func sizeFiles(p *sizePart) [2]invFile[model.ObjectID] {
	return [2]invFile[model.ObjectID]{{p.o.elems, p.o.lists}, {p.r.elems, p.r.lists}}
}

// eachList calls fn for every list of the index, named by level, partition,
// division (0 originals, 1 replicas) and element.
func eachList[P, T any](levels []hint.Directory[P], files func(*P) [2]invFile[T], fn func(name string, l []T)) {
	for l := range levels {
		for i, p := range levels[l].Parts {
			for r, f := range files(p) {
				for k, e := range f.elems {
					fn(fmt.Sprintf("level %d partition %d division %d element %d", l, levels[l].Keys[i], r, e), f.lists[k])
				}
			}
		}
	}
}

// equalStructure fails unless both hierarchies hold the same directory
// keys and, per division, the same elems and the same lists entry for
// entry; same compares what files does not show of two partitions.
func equalStructure[P any, T comparable](t *testing.T, got, want []hint.Directory[P], files func(*P) [2]invFile[T], same func(got, want *P) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d levels, want %d", len(got), len(want))
	}
	for l := range want {
		if !slices.Equal(got[l].Keys, want[l].Keys) {
			t.Fatalf("level %d: directory keys %v, want %v", l, got[l].Keys, want[l].Keys)
		}
		for i := range want[l].Parts {
			g, w := files(got[l].Parts[i]), files(want[l].Parts[i])
			for r := range w {
				if !slices.Equal(g[r].elems, w[r].elems) {
					t.Fatalf("level %d partition %d division %d: elems %v, want %v", l, want[l].Keys[i], r, g[r].elems, w[r].elems)
				}
				for k := range w[r].lists {
					if !slices.Equal(g[r].lists[k], w[r].lists[k]) {
						t.Fatalf("level %d partition %d division %d element %d: list %v, want %v",
							l, want[l].Keys[i], r, w[r].elems[k], g[r].lists[k], w[r].lists[k])
					}
				}
			}
			if !same(got[l].Parts[i], want[l].Parts[i]) {
				t.Fatalf("level %d partition %d: interval stores differ", l, want[l].Keys[i])
			}
		}
	}
}

func sameStores(got, want *sizePart) bool {
	return slices.Equal(got.o.ivals, want.o.ivals) && slices.Equal(got.r.ivals, want.r.ivals)
}

func noStores(_, _ *perfPart) bool { return true }

// checkEqualsInsertBuilt compares both variants, structurally, with what one
// Insert per object of objs builds on the same domains — the construction
// the bulk kernel replaced.
func checkEqualsInsertBuilt(t *testing.T, perf *PerfIndex, size *SizeIndex, dictSize int, objs []model.Object) {
	t.Helper()
	perfRef := &PerfIndex{dom: perf.dom, levels: make([]hint.Directory[perfPart], perf.dom.M+1), freqs: make([]int, dictSize)}
	sizeRef := &SizeIndex{dom: size.dom, levels: make([]hint.Directory[sizePart], size.dom.M+1), freqs: make([]int, dictSize)}
	for _, o := range objs {
		perfRef.Insert(o)
		sizeRef.Insert(o)
	}
	equalStructure(t, perf.levels, perfRef.levels, perfFiles, noStores)
	equalStructure(t, size.levels, sizeRef.levels, sizeFiles, sameStores)
	if !slices.Equal(perf.freqs, perfRef.freqs) || !slices.Equal(size.freqs, sizeRef.freqs) {
		t.Fatal("element frequencies differ")
	}
	if perf.live != perfRef.live || size.live != sizeRef.live {
		t.Fatalf("live %d/%d, want %d/%d", perf.live, size.live, perfRef.live, sizeRef.live)
	}
	if perf.EntryCount() != perfRef.EntryCount() || size.EntryCount() != sizeRef.EntryCount() {
		t.Fatal("entry counts differ")
	}
}

// checkBulkEqualsInserted bulk-builds both variants over c and compares
// them with the insert-built indices over ref's objects.
func checkBulkEqualsInserted(t *testing.T, c, ref *model.Collection, opts ...Option) {
	t.Helper()
	checkEqualsInsertBuilt(t, NewPerf(c, opts...), NewSize(c, opts...), c.DictSize, ref.Objects)
}

// TestBulkEqualsInsertBuilt: the bulk kernel builds exactly the index that
// Section 4.1's one-object-at-a-time construction builds — on the three
// generators and on the inputs a two-pass build could get wrong.
func TestBulkEqualsInsertBuilt(t *testing.T) {
	cfg := testutil.DefaultConfig(31)
	one := &model.Collection{}
	one.AppendObject(model.NewInterval(5, 9), []model.ElemID{2, 0})
	sparse := testutil.RandomCollection(cfg)
	for i := range sparse.Objects {
		if i%3 == 0 {
			sparse.Objects[i].Elems = nil
		}
	}
	stacked := testutil.RandomCollection(cfg)
	for i := range stacked.Objects {
		stacked.Objects[i].Interval = model.NewInterval(100, 3000)
	}
	smallDict := testutil.RandomCollection(cfg)
	smallDict.DictSize = 3
	for name, c := range map[string]*model.Collection{
		"synthetic":      gen.Synthetic(gen.SyntheticConfig{Seed: 3}.Defaults(0.003)),
		"eclog":          gen.ECLOGLike(gen.RealConfig{Scale: 0.004, Seed: 3}),
		"wikipedia":      gen.WikipediaLike(gen.RealConfig{Scale: 0.0003, Seed: 3}),
		"random":         testutil.RandomCollection(cfg),
		"empty":          {},
		"one object":     one,
		"empty elems":    sparse,
		"one interval":   stacked,
		"small DictSize": smallDict,
	} {
		t.Run(name, func(t *testing.T) {
			checkBulkEqualsInserted(t, c, c)
			checkBulkEqualsInserted(t, c, c, WithM(9))
		})
	}
	// Ids descending and shuffled in collection order: the kernel orders
	// the objects by id itself. The reference inserts in id order, which
	// is also what fixes the order of equal keys in the interval stores.
	t.Run("unordered ids", func(t *testing.T) {
		ref := testutil.RandomCollection(cfg)
		c := &model.Collection{DictSize: ref.DictSize, Objects: slices.Clone(ref.Objects)}
		slices.Reverse(c.Objects)
		checkBulkEqualsInserted(t, c, ref, WithM(6))
		rand.New(rand.NewSource(1)).Shuffle(len(c.Objects), func(i, j int) {
			c.Objects[i], c.Objects[j] = c.Objects[j], c.Objects[i]
		})
		checkBulkEqualsInserted(t, c, ref, WithM(6))
		queries := testutil.RandomQueries(cfg, 100, 32)
		testutil.CheckAgainstOracle(t, "perf/shuffled", NewPerf(c), c, queries)
		testutil.CheckAgainstOracle(t, "size/shuffled", NewSize(c), c, queries)
	})
}

// checkInsertKeepsNeighbours pins the hazard of carving a division's lists
// from one arena: a list cut without its capacity bound (a perf run whose
// room is not checked, a size list without cap == len) would let an
// index-level Insert append into the next list. Every list of the bulk-built
// index is snapshotted; the extra objects repeat stored objects' intervals
// and elements under fresh, larger ids, so each lands only in lists that
// already exist; afterwards every list must still start with its snapshot
// and hold nothing more than the inserts that belong in it.
func checkInsertKeepsNeighbours[P, T any](t *testing.T, levels []hint.Directory[P], files func(*P) [2]invFile[T], id func(T) model.ObjectID, insert func(model.Object), c *model.Collection) []model.Object {
	t.Helper()
	before := map[string][]T{}
	eachList(levels, files, func(name string, l []T) { before[name] = slices.Clone(l) })
	var extra []model.Object
	for i := 0; i < len(c.Objects); i += 5 {
		o := c.Objects[i]
		o.ID = model.ObjectID(len(c.Objects) + len(extra))
		extra = append(extra, o)
		insert(o)
	}
	lists := 0
	eachList(levels, files, func(name string, l []T) {
		lists++
		was, ok := before[name]
		if !ok {
			t.Fatalf("%s: list created by an insert of existing elements", name)
		}
		for k := range l {
			switch got := id(l[k]); {
			case k < len(was) && got != id(was[k]):
				t.Fatalf("%s: entry %d was id %d, now %d — an insert wrote into a neighbouring list", name, k, id(was[k]), got)
			case k >= len(was) && int(got) < len(c.Objects):
				t.Fatalf("%s: stored id %d beyond the list's snapshot", name, got)
			}
		}
		if len(l) < len(was) {
			t.Fatalf("%s: list shrank from %d to %d", name, len(was), len(l))
		}
	})
	if lists != len(before) {
		t.Fatalf("%d lists after the inserts, %d before", lists, len(before))
	}
	return extra
}

func TestInsertAfterBulkKeepsNeighbours(t *testing.T) {
	cfg := testutil.DefaultConfig(77)
	c := testutil.RandomCollection(cfg)
	perf, size := NewPerf(c, WithM(5)), NewSize(c, WithM(5))
	bytesBefore, entriesBefore := [2]int64{perf.SizeBytes(), size.SizeBytes()}, [2]int64{perf.EntryCount(), size.EntryCount()}
	extra := checkInsertKeepsNeighbours(t, perf.levels, perfFiles, func(p perfEntry) model.ObjectID { return p.id }, perf.Insert, c)
	checkInsertKeepsNeighbours(t, size.levels, sizeFiles, func(id model.ObjectID) model.ObjectID { return id }, size.Insert, c)

	// The grown index is the insert-built index over all the objects.
	all := &model.Collection{DictSize: c.DictSize, Objects: append(slices.Clone(c.Objects), extra...)}
	checkEqualsInsertBuilt(t, perf, size, c.DictSize, all.Objects)
	// A perf run an insert moved to its arenas' tail, or a size list an
	// insert moved out of its arena, is counted where it now lives, at its
	// new room: no added entry goes uncounted.
	if got, min := perf.SizeBytes(), bytesBefore[0]+16*(perf.EntryCount()-entriesBefore[0]); got < min {
		t.Errorf("perf SizeBytes %d after the inserts, want at least %d", got, min)
	}
	if got, min := size.SizeBytes(), bytesBefore[1]+4*(size.EntryCount()-entriesBefore[1]); got < min {
		t.Errorf("size SizeBytes %d after the inserts, want at least %d", got, min)
	}

	oracle := bruteforce.New(all)
	for _, i := range rand.New(rand.NewSource(78)).Perm(len(all.Objects))[:len(all.Objects)/4] {
		perf.Delete(all.Objects[i])
		size.Delete(all.Objects[i])
		oracle.Delete(all.Objects[i].ID)
	}
	for qi, q := range testutil.RandomQueries(cfg, 200, 79) {
		want := testutil.Canonical(oracle.Query(q))
		for name, got := range map[string][]model.ObjectID{"perf": perf.Query(q), "size": size.Query(q)} {
			if !model.EqualIDs(testutil.Canonical(got), want) {
				t.Fatalf("query %d (%v elems=%v): %s %v, want %v", qi, q.Interval, q.Elems, name, testutil.Canonical(got), want)
			}
		}
	}
}

// countTight fails if a directory, an element directory or a list has spare
// capacity, and counts the partitions, lists and list entries.
func countTight[P, T any](t *testing.T, levels []hint.Directory[P], files func(*P) [2]invFile[T]) (parts, lists, entries int64) {
	t.Helper()
	for l := range levels {
		d := &levels[l]
		if cap(d.Keys) != len(d.Keys) || cap(d.Parts) != len(d.Parts) {
			t.Fatalf("level %d: directory has slack", l)
		}
		parts += int64(len(d.Parts))
		for _, p := range d.Parts {
			for _, f := range files(p) {
				if cap(f.elems) != len(f.elems) || cap(f.lists) != len(f.lists) {
					t.Fatalf("level %d: element directory has slack", l)
				}
			}
		}
	}
	eachList(levels, files, func(name string, l []T) {
		if cap(l) != len(l) {
			t.Fatalf("%s: cap %d, len %d", name, cap(l), len(l))
		}
		lists++
		entries += int64(len(l))
	})
	return parts, lists, entries
}

// checkRunsTight fails unless a perf division is tight in both columns:
// runs and arenas with cap == len, every run with no room beyond its
// entries (c == n), and the runs laid end to end over the arenas in
// element order.
func checkRunsTight(t *testing.T, name string, d *divIF) {
	t.Helper()
	if cap(d.runs) != len(d.runs) || cap(d.ids) != len(d.ids) || cap(d.spans) != len(d.spans) {
		t.Fatalf("%s: runs or arenas have slack", name)
	}
	end := uint32(0)
	for i, r := range d.runs {
		if r.c != r.n || r.off != end {
			t.Fatalf("%s element %d: run %+v, want room %d from %d", name, d.elems[i], r, r.n, end)
		}
		end += r.n
	}
	if int(end) != len(d.ids) {
		t.Fatalf("%s: runs cover %d of %d arena entries", name, end, len(d.ids))
	}
}

// TestBulkBuildIsTight: a bulk-built index has no slack for SizeBytes to
// miss or to count twice — every slice is exactly as long as its capacity,
// every perf run as long as its room, the lists of a division partition
// its arenas, and so SizeBytes is a function of the entry and directory
// counts alone.
func TestBulkBuildIsTight(t *testing.T) {
	cfg := testutil.DefaultConfig(12)
	cfg.MaxDesc = 10
	c := testutil.RandomCollection(cfg)
	perf, size := NewPerf(c, WithM(6)), NewSize(c, WithM(6))

	parts, lists, entries := countTight(t, perf.levels, perfFiles)
	for l := range perf.levels {
		for i, p := range perf.levels[l].Parts {
			checkRunsTight(t, fmt.Sprintf("level %d partition %d originals", l, perf.levels[l].Keys[i]), &p.o)
			checkRunsTight(t, fmt.Sprintf("level %d partition %d replicas", l, perf.levels[l].Keys[i]), &p.r)
		}
	}
	// Every dense element's bitmap is exactly ⌈universe/64⌉ words.
	dense, words := int64(len(perf.dense)), int64(perf.universe+63)/64
	if dense == 0 || cap(perf.dense) != len(perf.dense) || cap(perf.bitmaps) != len(perf.bitmaps) {
		t.Fatalf("perf: %d dense elements, %d bitmaps; want some, without slack", len(perf.dense), len(perf.bitmaps))
	}
	for i := range perf.bitmaps {
		if got := perf.bitmaps[i].SizeBytes(); got != 8*words {
			t.Fatalf("perf: dense element %d bitmap %d B, want %d", perf.dense[i], got, 8*words)
		}
	}
	// Per division: four slice headers and the dead counter, 4*24+8. Per
	// dense element: a 4-byte key, a slice header and the bitmap.
	if want := parts*(4+8+2*(4*24+8)) + lists*(4+12) + entries*16 + int64(len(perf.freqs))*8 + dense*(4+24+8*words); perf.SizeBytes() != want || entries != perf.EntryCount() {
		t.Errorf("perf SizeBytes %d, want %d from %d partitions, %d lists, %d entries, %d dense elements", perf.SizeBytes(), want, parts, lists, entries, dense)
	}

	parts, lists, entries = countTight(t, size.levels, sizeFiles)
	var ivals int64
	for l := range size.levels {
		for _, p := range size.levels[l].Parts {
			if cap(p.o.ivals) != len(p.o.ivals) || cap(p.r.ivals) != len(p.r.ivals) {
				t.Fatalf("size level %d: interval store has slack", l)
			}
			ivals += int64(len(p.o.ivals) + len(p.r.ivals))
		}
	}
	// 2*8: the two divisions' dead counters.
	if want := parts*(4+8+96+2*8) + ivals*16 + lists*(4+24) + entries*4 + int64(len(size.freqs))*8; size.SizeBytes() != want || ivals+entries != size.EntryCount() {
		t.Errorf("size SizeBytes %d, want %d from %d partitions, %d stored intervals, %d lists, %d ids", size.SizeBytes(), want, parts, ivals, lists, entries)
	}
}

// TestCostModelMUnchanged pins the m the cost model picks on the three
// generators at two scales each, all above the model's sample size: reading
// the strided sample straight from the collection chooses what copying every
// interval out first chose.
func TestCostModelMUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *model.Collection
		m    int
	}{
		{"synthetic 0.01", gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.01)), 5},
		{"synthetic 0.05", gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.05)), 8},
		{"eclog 0.02", gen.ECLOGLike(gen.RealConfig{Scale: 0.02, Seed: 1}), 5},
		{"eclog 0.1", gen.ECLOGLike(gen.RealConfig{Scale: 0.1, Seed: 1}), 7},
		{"wikipedia 0.0033", gen.WikipediaLike(gen.RealConfig{Scale: 0.01 / 3, Seed: 1}), 5},
		{"wikipedia 0.0167", gen.WikipediaLike(gen.RealConfig{Scale: 0.05 / 3, Seed: 1}), 7},
	} {
		if got := resolveDomain(tc.c, config{}).M; got != tc.m {
			t.Errorf("%s (%d objects): cost model picked m = %d, was %d", tc.name, len(tc.c.Objects), got, tc.m)
		}
	}
}

// TestAllocBudgetBuild pins what a bulk build allocates on a 2k-object
// collection: a handful of buffers per build and four slices per
// populated division (perf: element directory, runs and its two arenas;
// size: element directory, list headers, id arena and interval store) —
// proportional to divisions, not to the thousands of lists.
func TestAllocBudgetBuild(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 2000, DomainLo: 0, DomainHi: 1 << 20, Dict: 200, MaxDesc: 6, Seed: 9}
	c := testutil.RandomCollection(cfg)
	var lists int
	perf := NewPerf(c, WithM(5))
	eachList(perf.levels, perfFiles, func(string, []perfEntry) { lists++ })
	t.Logf("%d lists, %d dense elements", lists, len(perf.dense))
	allocbudget.Gate(t, "core/NewPerf", func() { NewPerf(c, WithM(5)) })
	allocbudget.Gate(t, "core/NewSize", func() { NewSize(c, WithM(5)) })
}
