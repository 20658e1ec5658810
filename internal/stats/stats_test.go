package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

func small() *model.Collection {
	var c model.Collection
	c.AppendObject(model.Interval{Start: 0, End: 9}, []model.ElemID{0, 1})  // dur 10
	c.AppendObject(model.Interval{Start: 5, End: 5}, []model.ElemID{0})     // dur 1
	c.AppendObject(model.Interval{Start: 2, End: 21}, []model.ElemID{0, 2}) // dur 20
	return &c
}

func TestComputeSummary(t *testing.T) {
	s := Compute(small())
	if s.Cardinality != 3 {
		t.Errorf("Cardinality = %d", s.Cardinality)
	}
	if s.TimeDomain != 22 {
		t.Errorf("TimeDomain = %d, want 22", s.TimeDomain)
	}
	if s.MinDuration != 1 || s.MaxDuration != 20 {
		t.Errorf("durations [%d,%d]", s.MinDuration, s.MaxDuration)
	}
	if s.AvgDuration < 10.2 || s.AvgDuration > 10.5 {
		t.Errorf("AvgDuration = %f, want ~10.33", s.AvgDuration)
	}
	if s.DictSize != 3 {
		t.Errorf("DictSize = %d, want 3", s.DictSize)
	}
	if s.MinDescSize != 1 || s.MaxDescSize != 2 {
		t.Errorf("desc sizes [%d,%d]", s.MinDescSize, s.MaxDescSize)
	}
	if s.MinElemFreq != 1 || s.MaxElemFreq != 3 {
		t.Errorf("elem freqs [%d,%d]", s.MinElemFreq, s.MaxElemFreq)
	}
	if s.PostingsTotal != 5 {
		t.Errorf("PostingsTotal = %d", s.PostingsTotal)
	}
}

func TestEmptyCollection(t *testing.T) {
	var c model.Collection
	s := Compute(&c)
	if s.Cardinality != 0 || s.TimeDomain != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestTableRendering(t *testing.T) {
	out := Compute(small()).Table("TEST")
	for _, want := range []string{"== TEST ==", "Cardinality", "3", "Avg. interval duration [%]", "Dictionary size"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestLogHistogram(t *testing.T) {
	values := []uint64{1, 1, 2, 3, 10, 100, 1000}
	h := LogHistogram("durations", values, 10)
	total := 0
	for _, b := range h.Buckets {
		total += b.Count
		if b.Lo >= b.Hi {
			t.Errorf("bucket [%d,%d) malformed", b.Lo, b.Hi)
		}
	}
	if total != len(values) {
		t.Errorf("histogram covers %d of %d values", total, len(values))
	}
	if LogHistogram("empty", nil, 10).Buckets != nil {
		t.Error("empty histogram should have no buckets")
	}
	out := h.Render(40)
	if !strings.Contains(out, "durations") || !strings.Contains(out, "#") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestDurationsAndFrequencies(t *testing.T) {
	c := small()
	d := Durations(c)
	if len(d) != 3 || d[0] != 10 {
		t.Errorf("Durations = %v", d)
	}
	f := Frequencies(c)
	if len(f) != 3 {
		t.Errorf("Frequencies = %v", f)
	}
}

// TestDurationsAtTheInt64Edges: a lifespan is measured as the time domain
// is, so [MinInt64, MaxInt64] reads 2^64 - 1 points (saturated, not 0)
// and [MinInt64, 0] reads 2^63 + 1 (not negative), and the histogram over
// them ends.
func TestDurationsAtTheInt64Edges(t *testing.T) {
	var c model.Collection
	c.AppendObject(model.Interval{Start: math.MinInt64, End: math.MaxInt64}, []model.ElemID{0})
	c.AppendObject(model.Interval{Start: math.MinInt64, End: 0}, []model.ElemID{0})
	const all, half = math.MaxUint64, 1<<63 + 1
	s := Compute(&c)
	if uint64(s.MinDuration) != half || uint64(s.MaxDuration) != all || s.TimeDomain != all {
		t.Errorf("durations [%d, %d] over %d, want [%d, %d] over %d",
			s.MinDuration, s.MaxDuration, s.TimeDomain, uint64(half), uint64(all), uint64(all))
	}
	if want := (float64(all) + half) / 2; s.AvgDuration != want {
		t.Errorf("AvgDuration = %g, want %g", s.AvgDuration, want)
	}
	d := Durations(&c)
	if len(d) != 2 || uint64(d[0]) != all || uint64(d[1]) != half {
		t.Errorf("Durations = %v, want [%d %d]", d, uint64(all), uint64(half))
	}
	total := 0
	for _, b := range LogHistogram("durations", Durations(&c), 10).Buckets {
		total += b.Count
	}
	if total != 2 {
		t.Errorf("histogram covers %d of 2 values", total)
	}
}

func TestRealStandInShape(t *testing.T) {
	// The ECLOG stand-in should land near the Table 3 shape targets.
	c := gen.ECLOGLike(gen.RealConfig{Scale: 0.01, Seed: 42})
	s := Compute(c)
	if s.AvgDurationPct < 2 || s.AvgDurationPct > 25 {
		t.Errorf("ECLOG-like avg duration share = %.1f%%, target ~8.4%%", s.AvgDurationPct)
	}
	if s.AvgDescSize < 30 || s.AvgDescSize > 150 {
		t.Errorf("ECLOG-like avg |d| = %.0f, target ~72", s.AvgDescSize)
	}
	if s.MaxElemFreq <= int(s.AvgElemFreq) {
		t.Error("element frequency distribution should be skewed")
	}
}
