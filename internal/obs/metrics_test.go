package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tir_test_total", "test counter", Label{"method", "search"})
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same handle.
	if c2 := r.Counter("tir_test_total", "test counter", Label{"method", "search"}); c2 != c {
		t.Fatal("re-registration returned a different counter handle")
	}
	// A different label set is a different series.
	if c3 := r.Counter("tir_test_total", "test counter", Label{"method", "timeline"}); c3 == c {
		t.Fatal("distinct labels shared a handle")
	}

	g := r.Gauge("tir_test_ratio", "test gauge")
	g.Set(0.25)
	g.Add(0.25)
	if got := g.Value(); got != 0.5 {
		t.Fatalf("gauge = %v, want 0.5", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", DefLatencyBuckets()).Observe(0.1)
	r.CounterFunc("d", "", func() float64 { return 1 })
	r.GaugeFunc("e", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("sum = %v, want 111.5", h.Sum())
	}
	// Bucket occupancy: le=1 gets {0.5, 1}, le=5 gets {3}, le=10 gets
	// {7}, overflow gets {100}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tir_conc_total", "")
	h := r.Histogram("tir_conc_seconds", "", DefLatencyBuckets())
	g := r.Gauge("tir_conc_gauge", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%10) * 0.001)
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("tir_queries_total", "Queries served.", Label{"method", "search"}).Add(3)
	r.Gauge("tir_dead_ratio", "Dead fraction.").Set(0.5)
	r.Histogram("tir_query_seconds", "Latency.", []float64{0.01, 0.1}).Observe(0.05)
	r.GaugeFunc("tir_objects", "Objects.", func() float64 { return 42 })
	r.CounterFunc("tir_compactions_total", "Compactions.", func() float64 { return 2 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE tir_queries_total counter",
		`tir_queries_total{method="search"} 3`,
		"# TYPE tir_dead_ratio gauge",
		"tir_dead_ratio 0.5",
		"# TYPE tir_query_seconds histogram",
		`tir_query_seconds_bucket{le="0.01"} 0`,
		`tir_query_seconds_bucket{le="0.1"} 1`,
		`tir_query_seconds_bucket{le="+Inf"} 1`,
		"tir_query_seconds_sum 0.05",
		"tir_query_seconds_count 1",
		"tir_objects 42",
		"tir_compactions_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Families must be sorted and every line either a comment or a
	// name{labels} value sample.
	var last string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if last != "" && base < last {
			t.Fatalf("families not sorted: %q after %q", base, last)
		}
		last = base
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("tir_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("tir_x", "")
}

// TestFuncSeriesRegisteredTwicePanics: a second callback for one series
// (same name, same labels in any order) panics instead of replacing the
// first; another label value is another series and registers fine.
func TestFuncSeriesRegisteredTwicePanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(r *Registry, name string, fn func() float64, labels ...Label)
	}{
		{"CounterFunc", func(r *Registry, name string, fn func() float64, labels ...Label) {
			r.CounterFunc(name, "", fn, labels...)
		}},
		{"GaugeFunc", func(r *Registry, name string, fn func() float64, labels ...Label) {
			r.GaugeFunc(name, "", fn, labels...)
		}},
	} {
		r := NewRegistry()
		one := func() float64 { return 1 }
		tc.register(r, "tir_x", one, Label{"a", "1"}, Label{"b", "2"})
		tc.register(r, "tir_x", one, Label{"a", "2"}, Label{"b", "2"})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on a second registration of one series", tc.name)
				}
			}()
			tc.register(r, "tir_x", func() float64 { return 2 }, Label{"b", "2"}, Label{"a", "1"})
		}()
	}
}
