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
// branch-free: one if per entry on the checks its part owes or on the
// tombstone, then one if per candidate on a dense element's bit. It is the
// reference the kernels are held to.
func branchyQuery(d *divIF, q model.Interval, plan []model.ElemID, probes []*postings.Bitmap, orig, checkStart, checkEnd bool) []model.ObjectID {
	i, ok := findElem(d.elems, plan[0])
	if !ok {
		return nil
	}
	r := d.runs[i]
	checkStart = checkStart && q.Start != math.MinInt64
	checkEnd = checkEnd && q.End != math.MaxInt64
	var out []model.ObjectID
	for _, aft := range []bool{false, true} {
		// The in part owes the division's checks, O_aft the end check
		// alone, R_aft nothing.
		cs, ce := checkStart && !aft, checkEnd && orig
		dead := d.dead > 0 && !cs && !ce
		lo, hi := d.part(i, aft)
		var cands []model.ObjectID
		for k := lo; k < hi; k++ {
			var start, end model.Timestamp
			if orig {
				start = d.starts[k]
			}
			if !aft {
				end = d.ends[r.eoff+k-lo]
			}
			var tomb bool
			switch {
			case !orig && aft:
			case !orig:
				tomb = end == math.MinInt64
			case aft:
				tomb = start == math.MaxInt64
			default:
				tomb = postings.IsTombstone(model.Interval{Start: start, End: end})
			}
			if !(cs && end < q.Start || ce && start > q.End || dead && tomb) {
				cands = append(cands, d.ids[k])
			}
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
				cands = postings.IntersectSortedIDs(cands, d.idPart(e, aft), nil)
			}
		}
		out = append(out, cands...)
	}
	return out
}

// kernelDivision builds an originals or a replicas division of elements 0
// and 1 by hand: n entries of element 0, each in a random part with spans
// from span, a random half of them also in element 1's run (in the same
// part) and in the returned bitmap. A part gets only spans it can hold: no
// R_aft entry is deleted, and no live O_aft entry starts at MaxInt64 nor
// live R_in entry ends at MinInt64, where their sentinels lie. dead counts
// the Tombstone sentinels span handed out.
func kernelDivision(rng *rand.Rand, n int, orig bool, span func() model.Interval) (*divIF, *postings.Bitmap) {
	type entry struct {
		id model.ObjectID
		iv model.Interval
	}
	var lists [2][2][]entry // [element][aft]
	d := &divIF{elems: []model.ElemID{0, 1}}
	id := model.ObjectID(0)
	for range n {
		id += 1 + model.ObjectID(rng.Intn(3))
		aft := rng.Intn(2)
		iv := span()
		switch dead := postings.IsTombstone(iv); {
		case dead && !orig && aft == 1:
			continue
		case dead:
			d.dead++
		case orig && aft == 1 && iv.Start == math.MaxInt64:
			iv.Start--
		case !orig && aft == 0 && iv.End == math.MinInt64:
			iv.End++
		}
		lists[0][aft] = append(lists[0][aft], entry{id, iv})
		if rng.Intn(2) == 0 {
			lists[1][aft] = append(lists[1][aft], entry{id, iv})
		}
	}
	var second []model.ObjectID
	for e, parts := range lists {
		in, all := uint32(len(parts[0])), append(slices.Clone(parts[0]), parts[1]...)
		d.runs = append(d.runs, run{off: uint32(len(d.ids)), n: uint32(len(all)), in: in, eoff: uint32(len(d.ends))})
		for k, x := range all {
			d.ids = append(d.ids, x.id)
			if orig {
				d.starts = append(d.starts, x.iv.Start)
			}
			if uint32(k) < in {
				d.ends = append(d.ends, x.iv.End)
			}
			if e == 1 {
				second = append(second, x.id)
			}
		}
	}
	slices.Sort(second)
	bm := &postings.Bitmap{}
	bm.SetSorted(second)
	return d, bm
}

// TestQueryFiltersMatchBranchyPredicate: divIF.query's branch-free
// first-list filters (keepOwed for O_in, each combination of owed checks,
// and its one-endpoint forms for O_aft and R_in) and dense probe
// (Bitmap.KeepSorted) keep exactly what branchyQuery keeps, on both kinds
// of division, on spans and queries whose endpoints sit at and beside the
// timestamp limits, with tombstones and live objects that start at
// MaxInt64. Every query reuses one scratch buffer and appends after a
// non-empty dst; none may write the division's columns.
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
	at := make([]int32, 2)
	check := func(d *divIF, q model.Interval, plan []model.ElemID, probes []*postings.Bitmap, orig, checkStart, checkEnd bool) {
		t.Helper()
		ids, starts, ends := slices.Clone(d.ids), slices.Clone(d.starts), slices.Clone(d.ends)
		want := append([]model.ObjectID{7}, branchyQuery(d, q, plan, probes, orig, checkStart, checkEnd)...)
		var got []model.ObjectID
		scratch, got = d.query(q, plan, probes, at[:len(plan)], orig, checkStart, checkEnd, scratch, []model.ObjectID{7})
		if !slices.Equal(got, want) {
			t.Fatalf("q %v plan %v probe %v originals %v start %v end %v dead %d run %+v:\n got %v\nwant %v",
				q, plan, probes[len(probes)-1] != nil, orig, checkStart, checkEnd, d.dead, d.runs[0], got, want)
		}
		if !slices.Equal(d.ids, ids) || !slices.Equal(d.starts, starts) || !slices.Equal(d.ends, ends) {
			t.Fatal("a query wrote the division's columns")
		}
	}
	for range 3000 {
		orig := rng.Intn(2) == 0
		d, bm := kernelDivision(rng, rng.Intn(40), orig, span)
		q := model.Canon(point(), point())
		for _, plan := range [][]model.ElemID{{0}, {0, 1}} {
			for _, probes := range [][]*postings.Bitmap{{nil, nil}, {nil, bm}} {
				for _, checks := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
					check(d, q, plan, probes[:len(plan)], orig, checks[0], checks[1])
				}
			}
		}
	}

	// An O_in part with a tombstone and a live object at [MaxInt64,
	// MaxInt64], queried with no check owed: the tombstone filter alone
	// must tell them apart.
	spans := []model.Interval{model.NewInterval(1, 2), postings.Tombstone, model.NewInterval(math.MaxInt64, math.MaxInt64), model.NewInterval(1, 2)}
	d := &divIF{elems: []model.ElemID{0}, runs: []run{{n: 4, in: 4}}, dead: 1}
	for k, iv := range spans {
		d.ids, d.starts, d.ends = append(d.ids, model.ObjectID(3*k+1)), append(d.starts, iv.Start), append(d.ends, iv.End)
	}
	q := model.NewInterval(0, 5)
	check(d, q, []model.ElemID{0}, []*postings.Bitmap{nil}, true, false, false)
	if _, got := d.query(q, []model.ElemID{0}, []*postings.Bitmap{nil}, at[:1], true, false, false, nil, nil); !slices.Contains(got, d.ids[2]) || slices.Contains(got, d.ids[1]) {
		t.Fatalf("got %v from ids %v: want the live [MaxInt64, MaxInt64] object %d and not the tombstoned %d", got, d.ids, d.ids[2], d.ids[1])
	}
}
