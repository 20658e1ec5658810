package tif

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

// insertBuilt is what one Insert per object of objs, in id order, builds —
// the construction the bulk kernel replaced.
func insertBuilt(dictSize int, objs []model.Object) *Index {
	ref := &Index{lists: make([][]postings.Posting, dictSize), freqs: make([]int, dictSize)}
	for _, o := range objs {
		ref.Insert(o)
	}
	return ref
}

func checkEqualsInsertBuilt(t *testing.T, ix *Index, dictSize int, objs []model.Object) {
	t.Helper()
	ref := insertBuilt(dictSize, objs)
	if len(ix.lists) != len(ref.lists) || !slices.Equal(ix.freqs, ref.freqs) || ix.live != ref.live {
		t.Fatalf("%d lists, freqs %v, live %d; want %d, %v, %d", len(ix.lists), ix.freqs, ix.live, len(ref.lists), ref.freqs, ref.live)
	}
	for e := range ref.lists {
		if !slices.Equal(ix.lists[e], ref.lists[e]) {
			t.Fatalf("element %d: %v, want %v", e, ix.lists[e], ref.lists[e])
		}
	}
}

// TestBulkEqualsInsertBuilt: the bulk kernel builds exactly the lists one
// Insert per object in id order builds, whatever order the collection
// holds its objects in and whether or not DictSize covers every element.
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
		t.Run(name, func(t *testing.T) {
			byID := slices.Clone(c.Objects)
			slices.SortFunc(byID, func(a, b model.Object) int { return cmp.Compare(a.ID, b.ID) })
			checkEqualsInsertBuilt(t, New(c), c.DictSize, byID)
		})
	}
}

func TestInsertAfterBulkKeepsNeighbours(t *testing.T) {
	cfg := testutil.DefaultConfig(77)
	c := testutil.RandomCollection(cfg)
	ix := New(c)
	testutil.CheckInsertAfterBulk(t, cfg, c, ix, func() map[string][]model.ObjectID {
		out := map[string][]model.ObjectID{}
		for e, l := range ix.lists {
			ids := make([]model.ObjectID, len(l))
			for i := range l {
				ids[i] = l[i].ID
			}
			out[fmt.Sprint("element ", e)] = ids
		}
		return out
	})
}

// TestBulkBuildIsTight: every list is exactly as long as its capacity, so
// SizeBytes is a function of the list and entry counts alone.
func TestBulkBuildIsTight(t *testing.T) {
	cfg := testutil.DefaultConfig(12)
	cfg.MaxDesc = 10
	ix := New(testutil.RandomCollection(cfg))
	entries := 0
	for e, l := range ix.lists {
		if len(l) != cap(l) {
			t.Fatalf("element %d: cap %d, len %d", e, cap(l), len(l))
		}
		entries += len(l)
	}
	if want := int64(entries*16 + len(ix.lists)*24 + len(ix.freqs)*8); ix.SizeBytes() != want {
		t.Errorf("SizeBytes %d, want %d from %d lists, %d entries", ix.SizeBytes(), want, len(ix.lists), entries)
	}
}

// TestAllocBudgetBuild pins what a bulk build allocates on a 500-object
// collection: a handful of buffers, however many lists and entries.
func TestAllocBudgetBuild(t *testing.T) {
	c := testutil.RandomCollection(testutil.CollectionConfig{N: 500, DomainLo: 0, DomainHi: 1 << 20, Dict: 100, MaxDesc: 6, Seed: 9})
	allocbudget.Gate(t, "tif/New", func() { New(c) })
}

// BenchmarkBuild times the bulk build over the scale-0.03 synthetic
// corpus (30k objects — the benchmark's lib_methods input):
// `go test -run '^$' -bench Build -benchtime 5x ./internal/tif`.
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
