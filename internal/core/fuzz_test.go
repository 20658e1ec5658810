package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/domain"
	"repro/internal/model"
	"repro/internal/testutil"
)

// fuzzStream hands out the fuzz input a byte at a time, zeros once it is
// spent.
type fuzzStream []byte

func (s *fuzzStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// boundaryPalette returns timestamps on and beside every cell boundary of
// dom, both ends of the span, and the timestamp limits: the endpoints at
// which an interval changes partition, part (in or aft) or sentinel.
func boundaryPalette(dom domain.Domain) []model.Timestamp {
	p := []model.Timestamp{math.MinInt64, math.MinInt64 + 1, dom.Min, dom.Max, math.MaxInt64 - 1, math.MaxInt64}
	for c := uint32(0); c+1 < dom.Cells(); c++ {
		last := lastIn(dom, c) // the last timestamp before cell c+1
		p = append(p, last, last+1, min(last+1, math.MaxInt64-1)+1)
	}
	slices.Sort(p)
	return slices.Compact(p)
}

// FuzzPerfUpdates drives irHINT-perf, bulk-built over a corpus whose
// endpoints sit on partition boundaries (and, in a wide corpus, at the
// timestamp limits), through a sequence of inserts, deletes and queries
// whose endpoints come from the same palette, limits included. Every
// answer must equal the brute-force oracle's, and so must a final sweep of
// queries. The first input byte picks m (1 to 6) and whether the corpus
// spans the whole timestamp range; the rest, up to 2 KiB, are the corpus
// size, the objects and the operations.
func FuzzPerfUpdates(f *testing.F) {
	f.Add([]byte{3, 0, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{69, 1, 20, 0, 255, 7, 128, 3, 64, 9, 200, 1, 1, 17, 33, 90, 91, 92, 4, 8})
	f.Add([]byte{2, 0, 6, 0, 0, 0, 3, 3, 3, 1, 2, 1, 2, 1, 2, 0, 0, 0, 5, 5, 5})
	f.Add([]byte{70, 1, 30, 250, 251, 252, 253, 254, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(func() []byte {
		b := make([]byte, 400)
		rand.New(rand.NewSource(1)).Read(b)
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each operation is checked against a full scan: a few hundred
		// keep one execution in milliseconds.
		in := fuzzStream(data[:min(len(data), 2048)])
		head := in.next()
		m, wide := 1+head%6, head&64 != 0
		span := model.NewInterval(0, 1023)
		if wide {
			span = model.NewInterval(math.MinInt64, math.MaxInt64)
		}
		palette := boundaryPalette(domain.Fit(span, m))
		inSpan := slices.DeleteFunc(slices.Clone(palette), func(ts model.Timestamp) bool { return ts < span.Start || ts > span.End })
		interval := func(from []model.Timestamp) model.Interval {
			return model.Canon(from[in.next()%len(from)], from[in.next()%len(from)])
		}
		elems := func() []model.ElemID {
			bits := 1 + in.next()%15
			var es []model.ElemID
			for e := 0; e < 4; e++ {
				if bits&(1<<e) != 0 {
					es = append(es, model.ElemID(e))
				}
			}
			return es
		}
		// The first object spans the corpus, which fixes the domain.
		c := &model.Collection{DictSize: 4}
		c.AppendObject(span, []model.ElemID{0, 1, 2, 3})
		for n := in.next() % 32; n > 0; n-- {
			c.AppendObject(interval(inSpan), elems())
		}
		ix, oracle := NewPerf(c, WithM(m)), bruteforce.New(c)
		objs := slices.Clone(c.Objects)
		live := make([]bool, len(objs))
		for i := range live {
			live[i] = true
		}
		check := func(q model.Query) {
			t.Helper()
			if got, want := testutil.Canonical(ix.Query(q)), testutil.Canonical(oracle.Query(q)); !model.EqualIDs(got, want) {
				t.Fatalf("m %d wide %v query %v elems %v: got %v, want %v", m, wide, q.Interval, q.Elems, got, want)
			}
		}
		for len(in) > 0 {
			switch in.next() % 3 {
			case 0:
				o := model.Object{ID: model.ObjectID(len(objs)), Interval: interval(palette), Elems: elems()}
				ix.Insert(o)
				oracle.Insert(o)
				objs, live = append(objs, o), append(live, true)
			case 1:
				if i := in.next() % len(objs); live[i] {
					ix.Delete(objs[i])
					oracle.Delete(objs[i].ID)
					live[i] = false
				}
			default:
				check(model.Query{Interval: interval(palette), Elems: model.NormalizeElems(elems())})
			}
		}
		for _, lo := range palette {
			for _, es := range [][]model.ElemID{{0}, {1, 2}, {0, 1, 2, 3}} {
				check(model.Query{Interval: model.NewInterval(lo, math.MaxInt64), Elems: es})
				check(model.Query{Interval: model.NewInterval(math.MinInt64, lo), Elems: es})
			}
		}
	})
}
