package sharding

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// oracleShards is the construction the bulk kernel replaced, kept as its
// reference: sort the list by start, then end; put each entry on the
// first shard, scanning in order, whose last end does not exceed the
// entry's end, or open a new shard; then, while over budget, merge the two
// smallest shards into the first one's place and re-sort it by start.
func oracleShards(list []postings.Posting, budget int) []shard {
	list = slices.Clone(list)
	slices.SortFunc(list, func(a, b postings.Posting) int {
		return cmp.Or(cmp.Compare(a.Interval.Start, b.Interval.Start), cmp.Compare(a.Interval.End, b.Interval.End))
	})
	var shards []shard
	for _, p := range list {
		placed := false
		for i := range shards {
			if s := &shards[i]; s.entries[len(s.entries)-1].Interval.End <= p.Interval.End {
				s.entries = append(s.entries, p)
				placed = true
				break
			}
		}
		if !placed {
			shards = append(shards, shard{entries: []postings.Posting{p}, ideal: true})
		}
	}
	for budget > 0 && len(shards) > budget {
		a, b := 0, 1
		if len(shards[b].entries) < len(shards[a].entries) {
			a, b = b, a
		}
		for i := 2; i < len(shards); i++ {
			if n := len(shards[i].entries); n < len(shards[a].entries) {
				a, b = i, a
			} else if n < len(shards[b].entries) {
				b = i
			}
		}
		if a > b {
			a, b = b, a
		}
		merged := append(shards[a].entries, shards[b].entries...)
		slices.SortStableFunc(merged, func(x, y postings.Posting) int { return cmp.Compare(x.Interval.Start, y.Interval.Start) })
		shards[a] = shard{entries: merged}
		shards = slices.Delete(shards, b, b+1)
	}
	return shards
}

// multiset sorts a copy of s into one canonical order.
func multiset(s []postings.Posting) []postings.Posting {
	out := slices.Clone(s)
	slices.SortFunc(out, func(a, b postings.Posting) int {
		return cmp.Or(cmp.Compare(a.Interval.Start, b.Interval.Start), cmp.Compare(a.Interval.End, b.Interval.End), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// TestBulkEqualsOracle: every list holds the shards the replaced
// construction builds — the same members per shard, the same ideal flags,
// the same shard order — each sorted by start, at budgets from unlimited
// to one shard, on the corpora the benchmark and experiments build and on
// the inputs a bulk build could get wrong.
func TestBulkEqualsOracle(t *testing.T) {
	one := &model.Collection{}
	one.AppendObject(model.NewInterval(5, 9), []model.ElemID{2, 0})
	random := testutil.RandomCollection(testutil.DefaultConfig(31))
	reversed := &model.Collection{DictSize: random.DictSize, Objects: slices.Clone(random.Objects)}
	slices.Reverse(reversed.Objects)
	for name, c := range map[string]*model.Collection{
		"synthetic":      gen.Synthetic(gen.SyntheticConfig{Seed: 1}.Defaults(0.002)),
		"ECLOG-like":     gen.ECLOGLike(gen.RealConfig{Scale: 0.001, Seed: 7}),
		"random":         random,
		"empty":          {},
		"one object":     one,
		"reversed":       reversed,
		"small DictSize": {DictSize: 3, Objects: random.Objects},
	} {
		lists := make([][]postings.Posting, len(model.CountElems(c.Objects, c.DictSize)))
		for _, o := range c.Objects {
			for _, e := range o.Elems {
				lists[e] = append(lists[e], postings.Posting{ID: o.ID, Interval: o.Interval})
			}
		}
		for _, budget := range []int{0, 1, 4, 16} {
			t.Run(fmt.Sprintf("%s/budget %d", name, budget), func(t *testing.T) {
				ix := New(c, WithMaxShards(budget))
				if len(ix.shards) != len(lists) || ix.live != len(c.Objects) {
					t.Fatalf("%d lists, %d live; want %d, %d", len(ix.shards), ix.live, len(lists), len(c.Objects))
				}
				for e, list := range lists {
					got, want := ix.shards[e], oracleShards(list, budget)
					if len(got) != len(want) || ix.freqs[e] != len(list) {
						t.Fatalf("element %d: %d shards, freq %d; want %d, %d", e, len(got), ix.freqs[e], len(want), len(list))
					}
					for i := range want {
						g := got[i].entries
						if got[i].ideal != want[i].ideal || !slices.Equal(multiset(g), multiset(want[i].entries)) {
							t.Fatalf("element %d shard %d: ideal %v, %v; want %v, %v", e, i, got[i].ideal, g, want[i].ideal, want[i].entries)
						}
						if !slices.IsSortedFunc(g, func(a, b postings.Posting) int { return cmp.Compare(a.Interval.Start, b.Interval.Start) }) {
							t.Fatalf("element %d shard %d: not sorted by start: %v", e, i, g)
						}
					}
				}
			})
		}
	}
}

func TestInsertAfterBulkKeepsNeighbours(t *testing.T) {
	cfg := testutil.DefaultConfig(77)
	c := testutil.RandomCollection(cfg)
	ix := New(c, WithMaxShards(4))
	testutil.CheckInsertAfterBulk(t, cfg, c, ix, func() map[string][]model.ObjectID {
		out := map[string][]model.ObjectID{}
		for e := range ix.shards {
			for i, s := range ix.shards[e] {
				ids := make([]model.ObjectID, len(s.entries))
				for k := range s.entries {
					ids[k] = postings.LiveID(s.entries[k].ID)
				}
				out[fmt.Sprintf("element %d shard %d", e, i)] = ids
			}
		}
		return out
	})
}

// TestBulkBuildIsTight: every shard and every list's shard headers are
// exactly as long as their capacity, so SizeBytes is a function of the
// shard and entry counts alone.
func TestBulkBuildIsTight(t *testing.T) {
	cfg := testutil.DefaultConfig(12)
	cfg.MaxDesc = 10
	for _, budget := range []int{0, 4} {
		ix := New(testutil.RandomCollection(cfg), WithMaxShards(budget))
		shards, entries := 0, 0
		for e := range ix.shards {
			if len(ix.shards[e]) != cap(ix.shards[e]) {
				t.Fatalf("budget %d element %d: %d shard headers, cap %d", budget, e, len(ix.shards[e]), cap(ix.shards[e]))
			}
			for i, s := range ix.shards[e] {
				if len(s.entries) != cap(s.entries) {
					t.Fatalf("budget %d element %d shard %d: cap %d, len %d", budget, e, i, cap(s.entries), len(s.entries))
				}
				shards++
				entries += len(s.entries)
			}
		}
		if want := int64(entries*16 + shards*32 + len(ix.freqs)*8); ix.SizeBytes() != want {
			t.Errorf("budget %d: SizeBytes %d, want %d from %d shards, %d entries", budget, ix.SizeBytes(), want, shards, entries)
		}
	}
}

// TestAllocBudgetBuild pins what a bulk build allocates on a 500-object
// collection: a handful of buffers and the growth of the scratch one list
// at a time reuses, however many lists, shards and entries.
func TestAllocBudgetBuild(t *testing.T) {
	c := testutil.RandomCollection(testutil.CollectionConfig{N: 500, DomainLo: 0, DomainHi: 1 << 20, Dict: 100, MaxDesc: 6, Seed: 9})
	allocbudget.Gate(t, "sharding/New", func() { New(c) })
}

// BenchmarkBuild times the bulk build over the scale-0.03 synthetic
// corpus (30k objects — the benchmark's lib_methods input):
// `go test -run '^$' -bench Build -benchtime 5x ./internal/sharding`.
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
