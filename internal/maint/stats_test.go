package maint

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
	"repro/internal/tif"
)

// countingIndex is a main index that counts how often it is sized.
type countingIndex struct {
	model.Index
	sized *atomic.Int64
}

func (c countingIndex) SizeBytes() int64 {
	c.sized.Add(1)
	return c.Index.SizeBytes()
}

// unmemoisedSize is Generation.SizeBytes as it was before the base's
// size became a per-base constant: it walks the index.
func unmemoisedSize(g *Generation) int64 {
	return g.base.(countingIndex).Index.SizeBytes() + g.mem.SizeBytes() +
		int64(g.dead.Len())*tombstoneBytes + int64(len(g.ext))*4
}

// TestSizeBytesOncePerBase pins the O(1) accounting: however often the
// store is appended to, sized and asked for stats, each installed base
// index is walked exactly once, and the reported size is to the byte
// what walking it every time would report.
func TestSizeBytesOncePerBase(t *testing.T) {
	var sized atomic.Int64
	build := func(_ context.Context, c *model.Collection) (model.Index, error) {
		return countingIndex{tif.New(c), &sized}, nil
	}
	c := seedCollection(50)
	base, _ := build(context.Background(), c)
	s := newDenseStore(c, base, build)

	bases := int64(1)
	for i := 0; i < 1000; i++ {
		id := s.Append(model.NewInterval(model.Timestamp(i), model.Timestamp(i+5)), []model.ElemID{model.ElemID(i % 4)}, 4)
		if i%7 == 0 {
			s.Delete(id)
		}
		g := s.Snapshot()
		if got, want := g.SizeBytes(), unmemoisedSize(g); got != want {
			t.Fatalf("step %d: SizeBytes = %d, un-memoised formula gives %d", i, got, want)
		}
		s.Stats()
		if i == 300 || i == 700 {
			if _, err := s.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			bases++
			if g := s.Snapshot(); g.SizeBytes() != unmemoisedSize(g) {
				t.Fatalf("after compaction %d: SizeBytes = %d, un-memoised formula gives %d", bases-1, g.SizeBytes(), unmemoisedSize(g))
			}
		}
		if got := sized.Load(); got != bases {
			t.Fatalf("step %d: %d installed bases were sized %d times", i, bases, got)
		}
	}
}

// checkBaseDF asserts the generation's recorded frequencies are those of
// its compacted prefix, and that DocFreq extends them over the memtable
// to what ElemFreqs reports for the whole collection — ids the prefix
// never saw included.
func checkBaseDF(t *testing.T, when string, g *Generation) {
	t.Helper()
	prefix := model.Collection{Objects: g.coll.Objects[:g.compactLen], DictSize: len(g.baseDF)}
	want := prefix.ElemFreqs() // panics if the prefix holds an id past baseDF
	for e := range want {
		if g.baseDF[e] != want[e] {
			t.Fatalf("%s: baseDF[%d] = %d, prefix ElemFreqs gives %d", when, e, g.baseDF[e], want[e])
		}
	}
	all := g.coll.ElemFreqs()
	for e := 0; e < g.coll.DictSize+2; e++ {
		w := 0
		if e < len(all) {
			w = all[e]
		}
		if got := g.DocFreq(model.ElemID(e)); got != w {
			t.Fatalf("%s: DocFreq(%d) = %d, ElemFreqs gives %d", when, e, got, w)
		}
	}
}

// TestBaseDFTracksCompactedPrefix checks the frequency vector at every
// point a base is installed: the constructor (dense and explicit
// identity), a plain compaction, and a compaction with appends and
// deletes landing while its rebuild is blocked (those belong to the
// memtable, not to baseDF).
func TestBaseDFTracksCompactedPrefix(t *testing.T) {
	c := seedCollection(30)
	checkBaseDF(t, "dense NewStore", newDenseStore(c, tif.New(c), tifBuild).Snapshot())

	c = seedCollection(30)
	ext := make([]model.ObjectID, 30)
	for i := range ext {
		ext[i] = model.ObjectID(2 * i)
	}
	checkBaseDF(t, "NewStore with identity", NewStore(c, tif.New(c), tifBuild, ext, NewIDAllocator(100)).Snapshot())
	checkBaseDF(t, "empty store", newDenseStore(&model.Collection{}, tif.New(&model.Collection{}), tifBuild).Snapshot())

	c = seedCollection(30)
	enter, release := make(chan struct{}, 1), make(chan struct{}, 1)
	s := newDenseStore(c, tif.New(c), func(_ context.Context, cc *model.Collection) (model.Index, error) {
		enter <- struct{}{}
		<-release
		return tif.New(cc), nil
	})
	s.Append(model.NewInterval(5, 9), []model.ElemID{1, 6}, 7) // element 6 exists only in the memtable
	s.Delete(3)
	checkBaseDF(t, "memtable and tombstone pending", s.Snapshot())
	if got := s.Snapshot().DocFreq(6); got != 1 {
		t.Fatalf("DocFreq of a memtable-only element = %d, want 1", got)
	}

	release <- struct{}{}
	if _, err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-enter
	g := s.Snapshot()
	checkBaseDF(t, "after compaction", g)
	if len(g.baseDF) != 7 || g.baseDF[6] != 1 {
		t.Fatalf("compaction did not fold the memtable into baseDF: %v", g.baseDF)
	}

	s.Delete(4)
	done := make(chan error, 1)
	go func() {
		_, err := s.Compact(context.Background())
		done <- err
	}()
	<-enter // the survivor copy is done; the rebuild is blocked
	s.Append(model.NewInterval(50, 60), []model.ElemID{2, 9}, 10)
	s.Delete(7)
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	g = s.Snapshot()
	checkBaseDF(t, "after compaction with mid-flight writes", g)
	if g.MemLen() != 1 || len(g.baseDF) != 7 || g.DocFreq(9) != 1 {
		t.Fatalf("mid-flight append: memtable %d, len(baseDF) %d, DocFreq(9) %d; want 1, 7, 1", g.MemLen(), len(g.baseDF), g.DocFreq(9))
	}
}

// TestAllocBudget pins the per-element statistics lookup of ranked
// search: a table read plus a memtable scan, no allocation.
func TestAllocBudget(t *testing.T) {
	s := newTestStore(t, 1000)
	for i := 0; i < 200; i++ {
		s.Append(model.NewInterval(model.Timestamp(i), model.Timestamp(i+3)), []model.ElemID{model.ElemID(i % 6)}, 6)
	}
	g := s.Snapshot()
	df := 0
	allocbudget.Gate(t, "maint/Generation.DocFreq", func() {
		for e := model.ElemID(0); e < 8; e++ {
			df += g.DocFreq(e)
		}
	})
	if df == 0 {
		t.Fatal("lookup counted nothing")
	}
}
