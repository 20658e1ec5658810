package obs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Stage labels one timed phase of the query (or compaction) pipeline.
// The set is closed and small so a Trace can hold one atomic
// accumulator per stage — concurrent fan-out workers record into the
// same Trace without locks.
type Stage uint8

const (
	// StagePlan is term resolution and evaluation-order planning.
	StagePlan Stage = iota
	// StagePostings is the first-element postings fetch (the temporal
	// range query that seeds the candidate set).
	StagePostings
	// StageIntersect is the candidate intersection against the
	// remaining query elements.
	StageIntersect
	// StageFilter is the generation finish step: tombstone filtering
	// plus the memtable scan.
	StageFilter
	// StageRank is top-k scoring (it envelopes the ranked path's inner
	// query, so it overlaps StagePostings/StageIntersect).
	StageRank
	// StageAgg is timeline histogram aggregation (it envelopes the
	// aggregation's inner index work).
	StageAgg
	// StageSort is result ordering and external-id translation.
	StageSort
	// StageCompactCopy is compaction phase 1a: the off-lock survivor
	// copy.
	StageCompactCopy
	// StageCompactBuild is compaction phase 1b: the off-lock index
	// rebuild.
	StageCompactBuild
	// StageCompactSwap is compaction phase 2: the brief locked state
	// swap.
	StageCompactSwap
	// StageScatter is the sharded coordinator's fan-out: planning the
	// shard set and running the per-shard sub-queries (it envelopes each
	// shard's inner stages).
	StageScatter
	// StageMerge is the sharded coordinator's gather: k-way merging the
	// per-shard id lists, re-ranking top-k, or summing timeline buckets.
	StageMerge

	// NumStages bounds the per-trace accumulator arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"plan", "postings", "intersect", "filter", "rank", "agg", "sort",
	"compact_copy", "compact_build", "compact_swap", "scatter", "merge",
}

// String returns the stable lowercase stage label used in metrics and
// the slow log.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Trace accumulates per-stage wall time for one logical query (or one
// batch, or one compaction). All recording methods are safe on a nil
// receiver — a nil *Trace IS the disabled recorder, and costs one
// branch per call site — and, except SetShape, safe for concurrent use,
// so batch rows fanned out across a worker pool may share one Trace.
type Trace struct {
	method string
	// shapeFmt and the first shapeN shapeArgs are the query shape as
	// SetShape recorded it; Summary formats them.
	shapeFmt  string
	shapeArgs [3]int
	shapeN    int
	route     atomic.Pointer[string]
	tenant    atomic.Pointer[string]
	start     time.Time
	stageNS   [NumStages]atomic.Int64
	stageN    [NumStages]atomic.Int64
	batch     atomic.Int64
	results   atomic.Int64
}

// NewTrace starts a trace for the named query method.
func NewTrace(method string) *Trace {
	return &Trace{method: method, start: time.Now()}
}

// StageTimer is an in-flight span returned by StartStage. End must run
// on every path, so call sites defer it (the span-end irlint analyzer
// enforces this).
type StageTimer struct {
	tr    *Trace
	stage Stage
	start time.Time
}

// StartStage opens a span for stage s. On a nil Trace it returns the
// zero StageTimer without reading the clock, so a disabled call site
// costs a branch and nothing else.
func (t *Trace) StartStage(s Stage) StageTimer {
	if t == nil {
		return StageTimer{}
	}
	return StageTimer{tr: t, stage: s, start: time.Now()}
}

// End closes the span and folds its duration into the trace. It is a
// no-op on the zero StageTimer.
func (st StageTimer) End() {
	if st.tr == nil {
		return
	}
	st.tr.stageNS[st.stage].Add(int64(time.Since(st.start)))
	st.tr.stageN[st.stage].Add(1)
}

// SetShape attaches the query shape shown in the slow log: a
// fmt-style format and its integer counts, as in
// SetShape("terms=%d k=%d", 2, 10), with at most three counts. Only
// the counts are stored; the string is built by Summary, so a trace
// nobody reads never formats one. The trace's owner calls it before
// sharing the trace: unlike the other recording methods it is not safe
// for concurrent use.
func (t *Trace) SetShape(format string, counts ...int) {
	if t != nil {
		t.shapeFmt = format
		t.shapeN = copy(t.shapeArgs[:], counts)
	}
}

// SetRoute records which index family the adaptive router dispatched
// this query to. A batch trace keeps the last decision — the slow log
// wants a representative route, not a tally (the router's decision
// counters carry the tally).
func (t *Trace) SetRoute(method string) {
	if t != nil {
		t.route.Store(&method)
	}
}

// Route returns the recorded routing decision, or "" when the query
// was not routed (or the trace is nil).
func (t *Trace) Route() string {
	if t == nil {
		return ""
	}
	if p := t.route.Load(); p != nil {
		return *p
	}
	return ""
}

// SetTenant records which tenant the traced request belongs to, so
// slow-log entries are attributable in a multi-tenant deployment.
func (t *Trace) SetTenant(id string) {
	if t != nil {
		t.tenant.Store(&id)
	}
}

// Tenant returns the recorded tenant id, or "" when none was set (or
// the trace is nil).
func (t *Trace) Tenant() string {
	if t == nil {
		return ""
	}
	if p := t.tenant.Load(); p != nil {
		return *p
	}
	return ""
}

// SetBatch records how many sub-queries this trace covers.
func (t *Trace) SetBatch(n int) {
	if t != nil {
		t.batch.Store(int64(n))
	}
}

// AddResults accumulates result rows (batch rows add concurrently).
func (t *Trace) AddResults(n int) {
	if t != nil {
		t.results.Add(int64(n))
	}
}

// StageSummary is one row of a trace's per-stage breakdown.
type StageSummary struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Summary is the sealed, immutable form of a trace, as kept by the
// slow-query log. Stage durations may overlap (StageRank and StageAgg
// envelope inner stages), so they need not sum to Duration.
type Summary struct {
	Time     time.Time      `json:"time"`
	Method   string         `json:"method"`
	Tenant   string         `json:"tenant,omitempty"`
	Shape    string         `json:"shape,omitempty"`
	Route    string         `json:"route,omitempty"`
	Batch    int64          `json:"batch,omitempty"`
	Results  int64          `json:"results"`
	Duration time.Duration  `json:"duration_ns"`
	Stages   []StageSummary `json:"stages,omitempty"`
}

// Summary seals the trace into its exportable form. Safe on nil
// (returns the zero Summary).
func (t *Trace) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	s := Summary{
		Time:     t.start,
		Method:   t.method,
		Batch:    t.batch.Load(),
		Results:  t.results.Load(),
		Duration: time.Since(t.start),
	}
	if p := t.tenant.Load(); p != nil {
		s.Tenant = *p
	}
	s.Shape = t.shapeFmt
	if t.shapeN > 0 {
		args := make([]any, t.shapeN)
		for i := range args {
			args[i] = t.shapeArgs[i]
		}
		s.Shape = fmt.Sprintf(t.shapeFmt, args...)
	}
	if p := t.route.Load(); p != nil {
		s.Route = *p
	}
	for i := Stage(0); i < NumStages; i++ {
		if n := t.stageN[i].Load(); n > 0 {
			s.Stages = append(s.Stages, StageSummary{
				Stage: i.String(),
				Count: n,
				Total: time.Duration(t.stageNS[i].Load()),
			})
		}
	}
	return s
}

// StageTotal returns the accumulated duration of one stage (zero on a
// nil trace). The benchmark reads it for its per-layer stage metrics.
func (t *Trace) StageTotal(s Stage) time.Duration {
	if t == nil || s >= NumStages {
		return 0
	}
	return time.Duration(t.stageNS[s].Load())
}

// traceKey carries a *Trace through a context.
type traceKey struct{}

// ContextWithTrace returns ctx carrying tr. A nil trace returns ctx
// unchanged, so downstream FromContext stays on the fast path.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFromContext extracts the trace carried by ctx, or nil (the
// disabled recorder) when none is attached.
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
