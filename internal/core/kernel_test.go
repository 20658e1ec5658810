package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/postings"
)

// branchyQuery is divIF.query as it stood before its filters were made
// branch-free: one if per entry on the owed checks or the tombstone, then
// one if per candidate on a dense element's bit. It is the reference the
// kernels are held to.
func branchyQuery(d *divIF, q model.Interval, plan []model.ElemID, probes []*postings.Bitmap, checkStart, checkEnd bool) []model.ObjectID {
	i, ok := findElem(d.elems, plan[0])
	if !ok {
		return nil
	}
	r := d.runs[i]
	cands, spans := d.ids[r.off:r.off+r.n], d.spans[r.off:r.off+r.n]
	checkStart = checkStart && q.Start != math.MinInt64
	checkEnd = checkEnd && q.End != math.MaxInt64
	if dead := d.dead > 0 && !checkStart && !checkEnd; dead || checkStart || checkEnd {
		var kept []model.ObjectID
		for k := range spans {
			if !(checkStart && spans[k].End < q.Start || checkEnd && spans[k].Start > q.End || dead && postings.IsTombstone(spans[k])) {
				kept = append(kept, cands[k])
			}
		}
		cands = kept
	}
	for k, e := range plan[1:] {
		if bm := probes[k+1]; bm != nil {
			var kept []model.ObjectID
			for _, id := range cands {
				if bm.Contains(id) {
					kept = append(kept, id)
				}
			}
			cands = kept
		} else {
			cands = postings.IntersectSortedIDs(cands, d.idRun(e), nil)
		}
	}
	return cands
}

// kernelDivision builds a division of elements 0 and 1 by hand: n entries
// of element 0 with spans from span, a random half of them also in
// element 1's run and in the returned bitmap. dead counts the Tombstone
// sentinels span handed out.
func kernelDivision(rng *rand.Rand, n int, span func() model.Interval) (*divIF, *postings.Bitmap) {
	d := &divIF{elems: []model.ElemID{0, 1}}
	var second []model.ObjectID
	id := model.ObjectID(0)
	for range n {
		id += 1 + model.ObjectID(rng.Intn(3))
		iv := span()
		if postings.IsTombstone(iv) {
			d.dead++
		}
		d.ids, d.spans = append(d.ids, id), append(d.spans, iv)
		if rng.Intn(2) == 0 {
			second = append(second, id)
		}
	}
	d.runs = []run{{off: 0, n: uint32(n), c: uint32(n)}, {off: uint32(n), n: uint32(len(second)), c: uint32(len(second))}}
	d.ids = append(d.ids, second...)
	for range second {
		d.spans = append(d.spans, model.NewInterval(0, 0))
	}
	bm := &postings.Bitmap{}
	bm.SetSorted(second)
	return d, bm
}

// TestQueryFiltersMatchBranchyPredicate: divIF.query's branch-free
// first-list filter (keepOwed, each combination of owed checks) and dense
// probe (Bitmap.KeepSorted) keep exactly what branchyQuery keeps, on spans
// and queries whose endpoints sit at and beside the timestamp limits, with
// tombstones and live objects that start at MaxInt64. Every query reuses
// one scratch buffer and appends after a non-empty dst; none may write the
// division's arenas.
func TestQueryFiltersMatchBranchyPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	ends := []model.Timestamp{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}
	point := func() model.Timestamp {
		if rng.Intn(3) == 0 {
			return ends[rng.Intn(len(ends))]
		}
		return model.Timestamp(rng.Intn(17) - 8)
	}
	span := func() model.Interval {
		switch rng.Intn(10) {
		case 0:
			return postings.Tombstone
		case 1:
			return model.NewInterval(math.MaxInt64, math.MaxInt64)
		}
		return model.Canon(point(), point())
	}
	var scratch []model.ObjectID
	check := func(d *divIF, q model.Interval, plan []model.ElemID, probes []*postings.Bitmap, checkStart, checkEnd bool) {
		t.Helper()
		ids, spans := slices.Clone(d.ids), slices.Clone(d.spans)
		want := append([]model.ObjectID{7}, branchyQuery(d, q, plan, probes, checkStart, checkEnd)...)
		var got []model.ObjectID
		scratch, got = d.query(q, plan, probes, checkStart, checkEnd, scratch, []model.ObjectID{7})
		if !slices.Equal(got, want) {
			t.Fatalf("q %v plan %v probe %v start %v end %v dead %d spans %v:\n got %v\nwant %v",
				q, plan, probes[len(probes)-1] != nil, checkStart, checkEnd, d.dead, d.spans[:d.runs[0].n], got, want)
		}
		if !slices.Equal(d.ids, ids) || !slices.Equal(d.spans, spans) {
			t.Fatal("a query wrote the division's arenas")
		}
	}
	for range 3000 {
		d, bm := kernelDivision(rng, rng.Intn(40), span)
		q := model.Canon(point(), point())
		for _, plan := range [][]model.ElemID{{0}, {0, 1}} {
			for _, probes := range [][]*postings.Bitmap{{nil, nil}, {nil, bm}} {
				for _, checks := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
					check(d, q, plan, probes[:len(plan)], checks[0], checks[1])
				}
			}
		}
	}

	// A division with a tombstone and a live object at [MaxInt64, MaxInt64],
	// queried with no check owed: the tombstone filter alone must tell
	// them apart.
	d, _ := kernelDivision(rng, 4, func() model.Interval { return model.NewInterval(1, 2) })
	d.spans[1], d.spans[2], d.dead = postings.Tombstone, model.NewInterval(math.MaxInt64, math.MaxInt64), 1
	q := model.NewInterval(0, 5)
	check(d, q, []model.ElemID{0}, []*postings.Bitmap{nil}, false, false)
	if _, got := d.query(q, []model.ElemID{0}, []*postings.Bitmap{nil}, false, false, nil, nil); !slices.Contains(got, d.ids[2]) || slices.Contains(got, d.ids[1]) {
		t.Fatalf("got %v from ids %v: want the live [MaxInt64, MaxInt64] object %d and not the tombstoned %d", got, d.ids[:4], d.ids[2], d.ids[1])
	}
}
