package maint

import (
	"context"
	"sync/atomic"
	"testing"

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
