package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The hot path is a
// single atomic add; callers hold the *Counter handle so no map lookup
// happens per event.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value (stored as float64 bits so
// ratios work).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observe is lock-free: one
// atomic add on the matching bucket, one on the count, and a CAS loop
// on the float sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefLatencyBuckets spans 10µs..10s, the range of interest for the
// query path.
func DefLatencyBuckets() []float64 {
	return []float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10}
}

// DefSizeBuckets covers batch sizes / result counts.
func DefSizeBuckets() []float64 {
	return []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000}
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Label is one metric dimension.
type Label struct {
	Key, Value string
}

// metric kinds for exposition.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// sample is one labeled series inside a family. Exactly one of the
// value fields is set, matching the family kind.
type sample struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // scrape-time callback (counterFunc/gaugeFunc)
}

type familyDef struct {
	name, help, kind string
	bounds           []float64 // histogram only
	samples          []*sample
}

// Registry holds metric families. Registration and scraping take the
// registry mutex; the recording hot path never does — callers keep the
// atomic handles returned at registration time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*familyDef
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*familyDef)}
}

// family returns (creating if needed) the named family, panicking on a
// kind mismatch — that is a programming error caught in tests.
func (r *Registry) family(name, help, kind string) *familyDef {
	f, ok := r.families[name]
	if !ok {
		f = &familyDef{name: name, help: help, kind: kind}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " re-registered as " + kind + ", was " + f.kind) // registration-time programming error
	}
	return f
}

// mustBeNew panics if the family already has a series with these labels:
// a second callback for one series would replace the first, and the
// value it exported would vanish from the scrape.
func (f *familyDef) mustBeNew(labels []Label) {
	if f.find(labels) != nil {
		panic("obs: metric " + f.name + " series registered twice") // registration-time programming error
	}
}

// find returns the existing sample with exactly these labels, if any.
func (f *familyDef) find(labels []Label) *sample {
	for _, s := range f.samples {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	return nil
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cloneLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter registers (or finds) a counter series and returns its
// handle. Safe on a nil registry: returns a detached counter so
// un-observed code paths still work.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	ls := cloneLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	if s := f.find(ls); s != nil {
		return s.ctr
	}
	s := &sample{labels: ls, ctr: &Counter{}}
	f.samples = append(f.samples, s)
	return s.ctr
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	ls := cloneLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	if s := f.find(ls); s != nil {
		return s.gauge
	}
	s := &sample{labels: ls, gauge: &Gauge{}}
	f.samples = append(f.samples, s)
	return s.gauge
}

// Histogram registers (or finds) a histogram series with the given
// ascending bucket bounds and returns its handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	ls := cloneLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHist)
	if f.bounds == nil {
		f.bounds = append([]float64(nil), bounds...)
	}
	if s := f.find(ls); s != nil {
		return s.hist
	}
	s := &sample{labels: ls, hist: newHistogram(bounds)}
	f.samples = append(f.samples, s)
	return s.hist
}

// CounterFunc registers a scrape-time counter callback — for monotonic
// values owned elsewhere (compaction totals, pool counters). A series has
// one callback: registering the same name and labels twice panics.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	ls := cloneLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	f.mustBeNew(ls)
	f.samples = append(f.samples, &sample{labels: ls, fn: fn})
}

// GaugeFunc registers a scrape-time gauge callback; like CounterFunc, it
// panics on a second registration of one series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	ls := cloneLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	f.mustBeNew(ls)
	f.samples = append(f.samples, &sample{labels: ls, fn: fn})
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): sorted families, # HELP/# TYPE
// headers, cumulative histogram buckets with an explicit +Inf bound.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot families AND their sample slices under the lock: tenants
	// register series at runtime, so samples may be appended
	// concurrently with a scrape. Callbacks still run outside the lock,
	// so scrape-time fns may take other locks freely.
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families { // lint:map-order-ok sink is sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*familyDef, len(names))
	for i, name := range names {
		src := r.families[name]
		f := &familyDef{name: src.name, help: src.help, kind: src.kind, bounds: src.bounds}
		f.samples = append(f.samples, src.samples...)
		fams[i] = f
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			writeSample(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, f *familyDef, s *sample) {
	switch {
	case s.hist != nil:
		var cum uint64
		for i, bound := range s.hist.bounds {
			cum += s.hist.buckets[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(s.labels, Label{"le", formatFloat(bound)}), cum)
		}
		cum += s.hist.buckets[len(s.hist.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(s.labels, Label{"le", "+Inf"}), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(s.labels), formatFloat(s.hist.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(s.labels), s.hist.Count())
	case s.ctr != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(s.labels), s.ctr.Value())
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(s.gauge.Value()))
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(s.fn()))
	}
}

// labelString renders {k="v",...} or "" for no labels. extra labels
// (the histogram le bound) append after the sample's own.
func labelString(labels []Label, extra ...Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	all := append(append([]Label(nil), labels...), extra...)
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders floats the Prometheus way: integers without a
// decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
