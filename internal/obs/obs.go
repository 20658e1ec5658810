// Package obs is the repository's stdlib-only observability layer:
//
//   - a lock-free metrics registry (atomic counters, gauges and
//     fixed-bucket histograms, rendered in the Prometheus text
//     exposition format),
//   - per-query trace spans recorded through a context-carried
//     *Trace with near-zero cost when tracing is disabled (every
//     recording method is a nil-receiver no-op), and
//   - a slow-query log: a bounded ring buffer of the most recent
//     traces whose total duration crossed a threshold.
//
// The package sits below everything else (it imports only the standard
// library), so any layer — model, engine, server, maintenance — may
// record into it without import cycles.
package obs

import (
	"sync/atomic"
	"time"
)

// Config parameterizes an Observer.
type Config struct {
	// SlowThreshold is the duration at or above which a finished query
	// trace is captured by the slow-query log. Zero means
	// DefaultSlowThreshold; negative captures every trace.
	SlowThreshold time.Duration
	// SlowCapacity is the slow-log ring size. Zero means
	// DefaultSlowCapacity.
	SlowCapacity int
	// DisableTracing makes StartTrace return nil, so instrumented code
	// runs with no-op spans and the slow log stays empty. Metrics are
	// unaffected.
	DisableTracing bool
}

// DefaultSlowThreshold is the slow-query threshold when Config leaves
// it zero.
const DefaultSlowThreshold = 100 * time.Millisecond

// DefaultSlowCapacity is the slow-log ring size when Config leaves it
// zero.
const DefaultSlowCapacity = 128

// Observer bundles the metrics registry and the slow-query log behind
// one handle that owners (the HTTP server, the bench harness) share
// with the query path. A nil *Observer is fully usable: every method
// degrades to a no-op.
type Observer struct {
	reg     *Registry
	slow    *SlowLog
	tracing atomic.Bool
}

// NewObserver builds an Observer with a fresh registry and slow log.
func NewObserver(cfg Config) *Observer {
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.SlowCapacity == 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	o := &Observer{
		reg:  NewRegistry(),
		slow: NewSlowLog(cfg.SlowThreshold, cfg.SlowCapacity),
	}
	o.tracing.Store(!cfg.DisableTracing)
	return o
}

// Registry returns the metrics registry (nil on a nil Observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Slow returns the slow-query log (nil on a nil Observer).
func (o *Observer) Slow() *SlowLog {
	if o == nil {
		return nil
	}
	return o.slow
}

// SetTracing toggles span recording at runtime.
func (o *Observer) SetTracing(on bool) {
	if o != nil {
		o.tracing.Store(on)
	}
}

// StartTrace begins a trace for one logical query (or batch). It
// returns nil — the disabled recorder — when tracing is off or the
// Observer is nil; all Trace methods are safe on the nil result.
func (o *Observer) StartTrace(method string) *Trace {
	if o == nil || !o.tracing.Load() {
		return nil
	}
	return NewTrace(method)
}

// FinishTrace seals tr, offers its summary to the slow-query log, and
// returns the summary. A trace faster than the slow-log threshold is
// never summarized — most traces, so the common case builds no strings
// — and returns a zero Summary, as does a nil trace.
func (o *Observer) FinishTrace(tr *Trace) Summary {
	if tr == nil || (o != nil && time.Since(tr.start) < o.slow.Threshold()) {
		return Summary{}
	}
	s := tr.Summary()
	if o != nil {
		o.slow.Offer(s)
	}
	return s
}
