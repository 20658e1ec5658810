//go:build invariants

package temporalir

import (
	"context"
	"testing"
)

// TestAssertEngineLockedFires pins the "callers hold e.dmu" contract:
// calling the lock-requiring lookupLocked helper without e.dmu held must
// abort under the invariants build, whether or not another goroutine
// writes the dictionary at the time.
func TestAssertEngineLockedFires(t *testing.T) {
	if !engineInvariantsEnabled {
		t.Fatal("invariants build tag set but engineInvariantsEnabled is false")
	}
	b := NewBuilder()
	b.Add(1, 5, "alpha")
	e, err := b.Build(TIF, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("lookupLocked() without e.dmu held: expected invariant panic, got none")
		}
	}()
	// A deliberate contract violation under test.
	e.lookupLocked("alpha")
}

// TestAssertEngineLockedSilentUnderLock checks both lock grades satisfy
// the assertion.
func TestAssertEngineLockedSilentUnderLock(t *testing.T) {
	b := NewBuilder()
	b.Add(1, 5, "alpha")
	e, err := b.Build(TIF, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e.dmu.RLock()
	e.lookupLocked("alpha")
	e.dmu.RUnlock()
	e.dmu.Lock()
	e.lookupLocked("alpha")
	e.dmu.Unlock()
}

// TestGenerationInvariantsExercised publishes a stream of generations
// (inserts, deletes, compaction) with checkGeneration live on every
// publish — any structural violation panics the test.
func TestGenerationInvariantsExercised(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 32; i++ {
		b.Add(Timestamp(i), Timestamp(i+10), "alpha", "beta")
	}
	e, err := b.Build(IRHintPerf, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := 0; i < 16; i++ {
		e.Insert(Timestamp(i), Timestamp(i+3), "gamma")
	}
	for id := ObjectID(0); id < 24; id += 2 {
		if err := e.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
	if _, err := e.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := e.Len(); got != 32+16-12 {
		t.Fatalf("Len after compact = %d, want %d", got, 32+16-12)
	}
}
