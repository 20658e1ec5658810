package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsDisabledRecorder(t *testing.T) {
	var tr *Trace
	// Every recording method must be a no-op, not a nil deref.
	defer tr.StartStage(StagePlan).End()
	tr.SetShape("x")
	tr.SetBatch(3)
	tr.AddResults(7)
	if got := tr.Summary(); got.Method != "" || got.Results != 0 {
		t.Fatalf("nil trace summary = %+v, want zero", got)
	}
	if tr.StageTotal(StagePlan) != 0 || stageCount(tr, StagePlan) != 0 {
		t.Fatal("nil trace accumulated a stage")
	}
}

func TestTraceStages(t *testing.T) {
	tr := NewTrace("search")
	tr.SetShape("terms=2")
	func() {
		defer tr.StartStage(StagePostings).End()
		time.Sleep(time.Millisecond)
	}()
	func() {
		defer tr.StartStage(StagePostings).End()
	}()
	tr.AddResults(5)
	s := tr.Summary()
	if s.Method != "search" || s.Shape != "terms=2" || s.Results != 5 {
		t.Fatalf("summary header = %+v", s)
	}
	if len(s.Stages) != 1 || s.Stages[0].Stage != "postings" || s.Stages[0].Count != 2 {
		t.Fatalf("stage breakdown = %+v", s.Stages)
	}
	if tr.StageTotal(StagePostings) < time.Millisecond {
		t.Fatalf("postings total = %v, want >= 1ms", tr.StageTotal(StagePostings))
	}
}

// TestTraceConcurrent exercises the shared-trace batch pattern: many
// workers record into one trace.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("batch")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				func() {
					defer tr.StartStage(StageIntersect).End()
				}()
				tr.AddResults(1)
			}
		}()
	}
	wg.Wait()
	if got := stageCount(tr, StageIntersect); got != workers*per {
		t.Fatalf("intersect count = %d, want %d", got, workers*per)
	}
	if got := tr.Summary().Results; got != workers*per {
		t.Fatalf("results = %d, want %d", got, workers*per)
	}
}

// stageCount reads how many spans tr recorded for stage s.
func stageCount(tr *Trace, s Stage) int64 {
	for _, row := range tr.Summary().Stages {
		if row.Stage == s.String() {
			return row.Count
		}
	}
	return 0
}

// TestOnOffParity: the same instrumented code path must produce
// identical data results whether the recorder is nil or live.
func TestOnOffParity(t *testing.T) {
	run := func(tr *Trace) []int {
		defer tr.StartStage(StagePlan).End()
		out := make([]int, 0, 10)
		func() {
			defer tr.StartStage(StageIntersect).End()
			for i := 0; i < 10; i++ {
				out = append(out, i*i)
			}
		}()
		tr.AddResults(len(out))
		return out
	}
	off := run(nil)
	live := NewTrace("parity")
	on := run(live)
	if len(off) != len(on) {
		t.Fatalf("parity broken: %d vs %d results", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("parity broken at %d: %d vs %d", i, off[i], on[i])
		}
	}
	if live.Summary().Results != 10 || stageCount(live, StageIntersect) != 1 {
		t.Fatalf("live trace did not record: %+v", live.Summary())
	}
}

func TestContextRoundTrip(t *testing.T) {
	if TraceFromContext(context.Background()) != nil {
		t.Fatal("empty context produced a trace")
	}
	tr := NewTrace("x")
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFromContext(ctx); got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	// Attaching nil leaves the context untouched.
	if ctx2 := ContextWithTrace(context.Background(), nil); TraceFromContext(ctx2) != nil {
		t.Fatal("nil trace attached to context")
	}
}

func TestObserverToggle(t *testing.T) {
	o := NewObserver(Config{SlowThreshold: -1})
	if tr := o.StartTrace("q"); tr == nil {
		t.Fatal("tracing should default on")
	}
	o.SetTracing(false)
	if tr := o.StartTrace("q"); tr != nil {
		t.Fatal("tracing should be off")
	}
	o.SetTracing(true)
	tr := o.StartTrace("q")
	tr.AddResults(1)
	sum := o.FinishTrace(tr)
	if sum.Results != 1 {
		t.Fatalf("finish summary = %+v", sum)
	}
	if o.Slow().Total() != 1 {
		t.Fatal("negative threshold should capture every trace")
	}

	// Nil observer degrades everywhere.
	var nilObs *Observer
	if nilObs.StartTrace("q") != nil || nilObs.Registry() != nil || nilObs.Slow() != nil {
		t.Fatal("nil observer leaked a handle")
	}
	nilObs.SetTracing(true)
	nilObs.FinishTrace(nil)
}

func TestStageStrings(t *testing.T) {
	for s := Stage(0); s < NumStages; s++ {
		if s.String() == "" || s.String() == "unknown" {
			t.Fatalf("stage %d has no name", s)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage should be unknown")
	}
}

// TestShapeFormattedOnRead: SetShape stores counts; Summary formats
// them, and a bare string with no counts reads back verbatim.
func TestShapeFormattedOnRead(t *testing.T) {
	tr := NewTrace("search_topk")
	tr.SetShape("terms=%d k=%d", 2, 10)
	if got := tr.Summary().Shape; got != "terms=2 k=10" {
		t.Fatalf("shape = %q, want %q", got, "terms=2 k=10")
	}
	tr.SetShape("100%")
	if got := tr.Summary().Shape; got != "100%" {
		t.Fatalf("shape without counts = %q, want it verbatim", got)
	}
}

// TestFinishTraceSkipsFastTraces: a trace under the slow threshold is
// neither summarized nor logged.
func TestFinishTraceSkipsFastTraces(t *testing.T) {
	o := NewObserver(Config{SlowThreshold: time.Hour})
	tr := o.StartTrace("q")
	tr.SetShape("terms=%d", 1)
	tr.AddResults(3)
	if sum := o.FinishTrace(tr); sum.Method != "" || sum.Shape != "" {
		t.Fatalf("fast trace summarized: %+v", sum)
	}
	if o.Slow().Total() != 0 {
		t.Fatal("fast trace reached the slow log")
	}
}
