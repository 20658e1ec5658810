package domain

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestMakeValidation(t *testing.T) {
	if _, err := Make(10, 5, 4); err == nil {
		t.Error("min > max should fail")
	}
	if _, err := Make(0, 5, -1); err == nil {
		t.Error("negative m should fail")
	}
	if _, err := Make(0, 5, MaxBits+1); err == nil {
		t.Error("huge m should fail")
	}
	if _, err := Make(0, 5, 0); err != nil {
		t.Errorf("m=0 should be allowed: %v", err)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad args should panic")
		}
	}()
	New(5, 1, 3)
}

func TestDiscEndpointsAndClamp(t *testing.T) {
	d := New(100, 199, 3) // 100 raw units onto 8 cells
	if d.Cells() != 8 {
		t.Fatalf("Cells = %d", d.Cells())
	}
	if d.Disc(100) != 0 {
		t.Errorf("Disc(min) = %d, want 0", d.Disc(100))
	}
	if d.Disc(199) != 7 {
		t.Errorf("Disc(max) = %d, want 7", d.Disc(199))
	}
	if d.Disc(0) != 0 || d.Disc(1000) != 7 {
		t.Error("clamping failed")
	}
}

func TestDiscMonotone(t *testing.T) {
	f := func(a, b uint16, mRaw uint8) bool {
		m := int(mRaw%20) + 1
		d := New(0, 70000, m)
		ta, tb := model.Timestamp(a), model.Timestamp(b)
		if ta > tb {
			ta, tb = tb, ta
		}
		return d.Disc(ta) <= d.Disc(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiscCoversAllCells(t *testing.T) {
	// Every cell must be hit when the raw span is a multiple of cells.
	d := New(0, 15, 2)
	counts := make([]int, 4)
	for ti := model.Timestamp(0); ti <= 15; ti++ {
		counts[d.Disc(ti)]++
	}
	for i, n := range counts {
		if n != 4 {
			t.Errorf("cell %d got %d timestamps, want 4", i, n)
		}
	}
}

func TestPrefixAndExtent(t *testing.T) {
	d := New(0, 1023, 5) // 32 cells
	// Cell 20 = binary 10100. Level-2 prefix = 10 = 2; level-5 prefix = 20.
	if got := d.Prefix(2, 20); got != 2 {
		t.Errorf("Prefix(2, 20) = %d, want 2", got)
	}
	if got := d.Prefix(5, 20); got != 20 {
		t.Errorf("Prefix(5, 20) = %d, want 20", got)
	}
	if got := d.Prefix(0, 31); got != 0 {
		t.Errorf("Prefix(0, 31) = %d, want 0", got)
	}
	lo, hi := d.PartitionExtent(2, 2)
	if lo != 16 || hi != 23 {
		t.Errorf("PartitionExtent(2,2) = [%d,%d], want [16,23]", lo, hi)
	}
	lo, hi = d.PartitionExtent(5, 20)
	if lo != 20 || hi != 20 {
		t.Errorf("leaf extent = [%d,%d]", lo, hi)
	}
	lo, hi = d.PartitionExtent(0, 0)
	if lo != 0 || hi != 31 {
		t.Errorf("root extent = [%d,%d]", lo, hi)
	}
}

func TestPrefixConsistentWithExtent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := New(0, 1<<20, 12)
	for trial := 0; trial < 1000; trial++ {
		v := uint32(rng.Intn(int(d.Cells())))
		for level := 0; level <= d.M; level++ {
			j := d.Prefix(level, v)
			lo, hi := d.PartitionExtent(level, j)
			if v < lo || v > hi {
				t.Fatalf("cell %d not inside level-%d partition %d extent [%d,%d]", v, level, j, lo, hi)
			}
		}
	}
}

func TestDiscHugeDomainNoOverflow(t *testing.T) {
	// Epoch-nanosecond scale with the maximum grid: off << m would wrap
	// 64-bit arithmetic; the 128-bit path must stay monotone and exact
	// at the boundaries.
	min := model.Timestamp(1_700_000_000_000_000_000)
	max := min + (1 << 41)
	d := New(min, max, MaxBits)
	if d.Disc(min) != 0 || d.Disc(max) != d.Cells()-1 {
		t.Fatal("endpoint mapping broken")
	}
	rng := rand.New(rand.NewSource(9))
	prevT := min
	prevC := uint32(0)
	for i := 0; i < 5000; i++ {
		ti := min + model.Timestamp(rng.Int63n(int64(max-min)))
		if ti < prevT {
			ti, prevT = prevT, ti
		}
		c := d.Disc(ti)
		pc := d.Disc(prevT)
		if prevT <= ti && pc > c {
			t.Fatalf("monotonicity broken: Disc(%d)=%d > Disc(%d)=%d", prevT, pc, ti, c)
		}
		prevT, prevC = ti, c
	}
	_ = prevC
}

func TestDiscIntervalOrdered(t *testing.T) {
	d := New(0, 999, 6)
	lo, hi := d.DiscInterval(model.Interval{Start: 10, End: 700})
	if lo > hi {
		t.Errorf("DiscInterval out of order: %d > %d", lo, hi)
	}
}

// TestBoundaryAndLevelMonotonicity is the property-style table test for
// the grid's boundary behavior: cell 0 and cell 2^m-1 map exactly to the
// domain endpoints, clamping holds outside, and rescaling to every
// hierarchy level is monotone and properly nested.
func TestBoundaryAndLevelMonotonicity(t *testing.T) {
	cases := []struct {
		name     string
		min, max model.Timestamp
		m        int
	}{
		{"degenerate unit span m=0", 0, 0, 0},
		{"two-unit span m=1", 0, 1, 1},
		{"offset span m=4", -500, 499, 4},
		{"span smaller than grid m=6", 10, 25, 6},
		{"dense grid m=10", 0, 1 << 16, 10},
		{"max bits, huge offset span", 1 << 40, (1 << 40) + (1 << 33), MaxBits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(tc.min, tc.max, tc.m)
			top := d.Cells() - 1

			// Boundary values: the endpoints hit cells 0 and 2^m-1, and
			// clamping pins everything outside.
			if got := d.Disc(tc.min); got != 0 {
				t.Errorf("Disc(min) = %d, want 0", got)
			}
			if got := d.Disc(tc.max); got != top {
				t.Errorf("Disc(max) = %d, want %d", got, top)
			}
			if got := d.Disc(tc.min - 1); got != 0 {
				t.Errorf("Disc(min-1) = %d, want clamp to 0", got)
			}
			if got := d.Disc(tc.max + 1); got != top {
				t.Errorf("Disc(max+1) = %d, want clamp to %d", got, top)
			}

			// Deterministic sample of cells, always including both
			// boundary cells.
			cells := []uint32{0, top}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 64; i++ {
				cells = append(cells, uint32(rng.Intn(int(d.Cells()))))
			}

			for level := 0; level <= d.M; level++ {
				lastPart := (uint32(1) << uint(level)) - 1
				// Boundary cells rescale to the boundary partitions.
				if got := d.Prefix(level, 0); got != 0 {
					t.Errorf("Prefix(%d, 0) = %d, want 0", level, got)
				}
				if got := d.Prefix(level, top); got != lastPart {
					t.Errorf("Prefix(%d, top) = %d, want %d", level, got, lastPart)
				}
				for _, v := range cells {
					j := d.Prefix(level, v)
					// Rescaling stays on the level's grid.
					if j > lastPart {
						t.Fatalf("Prefix(%d, %d) = %d beyond last partition %d", level, v, j, lastPart)
					}
					// The partition's extent contains the cell (round trip).
					lo, hi := d.PartitionExtent(level, j)
					if v < lo || v > hi {
						t.Fatalf("cell %d outside its level-%d partition extent [%d,%d]", v, level, lo, hi)
					}
					// Nesting: the parent level's prefix is the halved prefix.
					if level > 0 {
						if parent := d.Prefix(level-1, v); parent != j>>1 {
							t.Fatalf("Prefix(%d, %d) = %d, want parent %d of level-%d partition %d", level-1, v, parent, j>>1, level, j)
						}
					}
					// Monotonicity of rescaling: v <= w implies
					// Prefix(level, v) <= Prefix(level, w).
					for _, w := range cells {
						if v <= w && d.Prefix(level, v) > d.Prefix(level, w) {
							t.Fatalf("rescaling not monotone at level %d: Prefix(%d)=%d > Prefix(%d)=%d",
								level, v, d.Prefix(level, v), w, d.Prefix(level, w))
						}
					}
				}
			}
		})
	}
}

// TestWholeRange: a domain over every int64 timestamp, 2^64 points,
// discretizes monotonically onto the full grid, and Fit and Slots lay
// out over it without their widths wrapping.
func TestWholeRange(t *testing.T) {
	whole := model.Interval{Start: math.MinInt64, End: math.MaxInt64}
	d := Fit(whole, MaxBits)
	if d.M != MaxBits {
		t.Fatalf("Fit(whole, %d).M = %d", MaxBits, d.M)
	}
	prev := uint32(0)
	for _, ts := range []model.Timestamp{math.MinInt64, math.MinInt64 + 1, -1 << 40, 0, 1 << 40, math.MaxInt64 - 1, math.MaxInt64} {
		c := d.Disc(ts)
		if c < prev {
			t.Fatalf("Disc(%d) = %d after %d", ts, c, prev)
		}
		prev = c
	}
	if d.Disc(math.MinInt64) != 0 || d.Disc(0) != d.Cells()/2 || d.Disc(math.MaxInt64) != d.Cells()-1 {
		t.Fatalf("whole-range cells: %d %d %d", d.Disc(math.MinInt64), d.Disc(0), d.Disc(math.MaxInt64))
	}
	for _, n := range []int{1, 2, 4, 50} {
		s := NewSlots(whole, n)
		if s.Of(math.MinInt64) != 0 || s.Of(math.MaxInt64) != n-1 {
			t.Fatalf("%d slots: edges in %d and %d", n, s.Of(math.MinInt64), s.Of(math.MaxInt64))
		}
		if n == 2 && (s.Of(-1) != 0 || s.Of(0) != 1) {
			t.Fatalf("2 slots split at %d/%d, want at 0", s.Of(-1), s.Of(0))
		}
	}
}

// TestFitNoFinerThanSpan: Fit never lays a grid with more cells than the
// span has points, and clamps m to MaxBits.
func TestFitNoFinerThanSpan(t *testing.T) {
	for _, tc := range []struct {
		span  model.Interval
		m, to int
	}{
		{model.Interval{Start: 0, End: 0}, 8, 1},
		{model.Interval{Start: 0, End: 7}, 8, 3},
		{model.Interval{Start: 5, End: 13}, 8, 3},
		{model.Interval{Start: 0, End: 1 << 40}, 40, MaxBits},
	} {
		if d := Fit(tc.span, tc.m); d.M != tc.to || d.Min != tc.span.Start || d.Max != tc.span.End {
			t.Errorf("Fit(%v, %d) = %+v, want m %d", tc.span, tc.m, d, tc.to)
		}
	}
}

// TestSlotsCeilWidth: n slots over p points are ⌈p/n⌉ points wide, and
// timestamps outside the span clamp to the edge slots.
func TestSlotsCeilWidth(t *testing.T) {
	s := NewSlots(model.Interval{Start: 10, End: 19}, 4) // 10 points, width 3
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range want {
		if got := s.Of(model.Timestamp(10 + i)); got != w {
			t.Errorf("Of(%d) = %d, want %d", 10+i, got, w)
		}
	}
	if s.Of(-100) != 0 || s.Of(100) != 3 {
		t.Errorf("clamp: Of(-100) = %d, Of(100) = %d", s.Of(-100), s.Of(100))
	}
}
