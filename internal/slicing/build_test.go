package slicing

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// insertBuilt is what one Insert per object of objs, in id order, builds on
// the slices of ix — the construction the bulk kernel replaced.
func insertBuilt(ix *Index, dictSize int, objs []model.Object) *Index {
	ref := &Index{numSlices: ix.numSlices, slots: ix.slots,
		lists: make([][][]postings.Posting, dictSize), freqs: make([]int, dictSize)}
	for _, o := range objs {
		ref.Insert(o)
	}
	return ref
}

func checkEqualsInsertBuilt(t *testing.T, ix *Index, dictSize int, objs []model.Object) {
	t.Helper()
	ref := insertBuilt(ix, dictSize, objs)
	if len(ix.lists) != len(ref.lists) || !slices.Equal(ix.freqs, ref.freqs) || ix.live != ref.live {
		t.Fatalf("%d lists, freqs %v, live %d; want %d, %v, %d", len(ix.lists), ix.freqs, ix.live, len(ref.lists), ref.freqs, ref.live)
	}
	for e := range ref.lists {
		if (ix.lists[e] == nil) != (ref.lists[e] == nil) || len(ix.lists[e]) != len(ref.lists[e]) {
			t.Fatalf("element %d: %d slices, want %d", e, len(ix.lists[e]), len(ref.lists[e]))
		}
		for s := range ref.lists[e] {
			if !slices.Equal(ix.lists[e][s], ref.lists[e][s]) {
				t.Fatalf("element %d slice %d: %v, want %v", e, s, ix.lists[e][s], ref.lists[e][s])
			}
		}
	}
}

// TestBulkEqualsInsertBuilt: the bulk kernel builds exactly the sub-lists
// one Insert per object in id order builds, at slice counts from one to
// finer than the default, whatever order the collection holds its objects
// in and whether or not DictSize covers every element.
func TestBulkEqualsInsertBuilt(t *testing.T) {
	cfg := testutil.DefaultConfig(31)
	ref := testutil.RandomCollection(cfg)
	one := &model.Collection{}
	one.AppendObject(model.NewInterval(5, 9), []model.ElemID{2, 0})
	reversed := &model.Collection{DictSize: ref.DictSize, Objects: slices.Clone(ref.Objects)}
	slices.Reverse(reversed.Objects)
	shuffled := &model.Collection{DictSize: ref.DictSize, Objects: slices.Clone(ref.Objects)}
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Objects), func(i, j int) {
		shuffled.Objects[i], shuffled.Objects[j] = shuffled.Objects[j], shuffled.Objects[i]
	})
	for name, c := range map[string]*model.Collection{
		"random":         ref,
		"empty":          {},
		"one object":     one,
		"small DictSize": {DictSize: 3, Objects: ref.Objects},
		"reversed":       reversed,
		"shuffled":       shuffled,
	} {
		for _, k := range []int{1, 4, DefaultSlices, 200} {
			t.Run(fmt.Sprintf("%s/%d slices", name, k), func(t *testing.T) {
				byID := slices.Clone(c.Objects)
				slices.SortFunc(byID, func(a, b model.Object) int { return cmp.Compare(a.ID, b.ID) })
				checkEqualsInsertBuilt(t, New(c, WithSlices(k)), c.DictSize, byID)
			})
		}
	}
}

func TestInsertAfterBulkKeepsNeighbours(t *testing.T) {
	cfg := testutil.DefaultConfig(77)
	c := testutil.RandomCollection(cfg)
	ix := New(c, WithSlices(10))
	testutil.CheckInsertAfterBulk(t, cfg, c, ix, func() map[string][]model.ObjectID {
		out := map[string][]model.ObjectID{}
		for e := range ix.lists {
			for s, l := range ix.lists[e] {
				ids := make([]model.ObjectID, len(l))
				for i := range l {
					ids[i] = l[i].ID
				}
				out[fmt.Sprintf("element %d slice %d", e, s)] = ids
			}
		}
		return out
	})
}

// TestBulkBuildIsTight: every sub-list is exactly as long as its capacity,
// so SizeBytes is a function of the sub-list and entry counts alone.
func TestBulkBuildIsTight(t *testing.T) {
	cfg := testutil.DefaultConfig(12)
	cfg.MaxDesc = 10
	ix := New(testutil.RandomCollection(cfg), WithSlices(10))
	subs := 0
	for e := range ix.lists {
		if len(ix.lists[e]) != cap(ix.lists[e]) {
			t.Fatalf("element %d: %d slice headers, cap %d", e, len(ix.lists[e]), cap(ix.lists[e]))
		}
		for s, l := range ix.lists[e] {
			if len(l) != cap(l) {
				t.Fatalf("element %d slice %d: cap %d, len %d", e, s, cap(l), len(l))
			}
			subs++
		}
	}
	if want := ix.EntryCount()*16 + int64(subs*24+len(ix.freqs)*8); ix.SizeBytes() != want {
		t.Errorf("SizeBytes %d, want %d from %d sub-lists, %d entries", ix.SizeBytes(), want, subs, ix.EntryCount())
	}
}

// TestAllocBudgetBuild pins what a bulk build allocates on a 500-object
// collection: a handful of buffers, however many lists and entries.
func TestAllocBudgetBuild(t *testing.T) {
	c := testutil.RandomCollection(testutil.CollectionConfig{N: 500, DomainLo: 0, DomainHi: 1 << 20, Dict: 100, MaxDesc: 6, Seed: 9})
	allocbudget.Gate(t, "slicing/New", func() { New(c) })
}

// TestAllocBudgetQuery pins what a query allocates, on the collection and
// query of sharding's and tIF+HINT's query budgets: the candidates and
// every pass over them live in pooled buffers, so only the answer is
// allocated. `make benchmem` re-records.
func TestAllocBudgetQuery(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 20_000, DomainLo: 0, DomainHi: 1 << 20, Dict: 50, MaxDesc: 6, Seed: 9}
	ix := New(testutil.RandomCollection(cfg))
	q := model.Query{Interval: model.NewInterval(1<<18, 3<<18), Elems: []model.ElemID{1, 4, 7}}
	want := len(ix.Query(q))
	if want == 0 {
		t.Fatal("query matches nothing")
	}
	allocbudget.Gate(t, "slicing/Index.Query", func() {
		if got := len(ix.Query(q)); got != want {
			t.Fatalf("result size changed: %d, was %d", got, want)
		}
	})
}

// BenchmarkBuild times the bulk build over the scale-0.03 synthetic
// corpus (30k objects — the benchmark's lib_methods input):
// `go test -run '^$' -bench Build -benchtime 5x ./internal/slicing`.
// B/object is the built index's SizeBytes per object.
func BenchmarkBuild(b *testing.B) {
	c := gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.03))
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		ix = New(c)
	}
	b.ReportMetric(float64(ix.SizeBytes())/float64(len(c.Objects)), "B/object")
}
