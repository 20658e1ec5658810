package tenant

import (
	"testing"
	"time"
)

func TestFairShareSingleTenantGetsFullCapacity(t *testing.T) {
	now := time.Unix(1000, 0)
	f := NewFairShare(8)
	for i := 0; i < 8; i++ {
		if !f.Acquire("solo", 1, now) {
			t.Fatalf("solo tenant rejected at slot %d of full capacity", i)
		}
	}
	if f.Acquire("solo", 1, now) {
		t.Fatal("admitted past capacity share")
	}
}

func TestFairShareSplitsUnderContention(t *testing.T) {
	now := time.Unix(1000, 0)
	f := NewFairShare(8)
	// Two equal tenants: each share is 4.
	for i := 0; i < 4; i++ {
		if !f.Acquire("a", 1, now) {
			t.Fatalf("tenant a rejected at slot %d (share should be 4)", i)
		}
		if !f.Acquire("b", 1, now) {
			t.Fatalf("tenant b rejected at slot %d (share should be 4)", i)
		}
	}
	if f.Acquire("a", 1, now) {
		t.Fatal("tenant a exceeded its half share")
	}
	f.Release("b")
	if got := f.Share("a", 1, now); got != 4 {
		t.Fatalf("Share(a) = %d, want 4", got)
	}
}

func TestFairShareWeights(t *testing.T) {
	now := time.Unix(1000, 0)
	f := NewFairShare(12)
	// weight 2 vs weight 1: shares 8 and 4.
	f.Acquire("heavy", 2, now)
	f.Acquire("light", 1, now)
	if got := f.Share("heavy", 2, now); got != 8 {
		t.Fatalf("Share(heavy) = %d, want 8", got)
	}
	if got := f.Share("light", 1, now); got != 4 {
		t.Fatalf("Share(light) = %d, want 4", got)
	}
}

func TestFairShareMinimumOne(t *testing.T) {
	now := time.Unix(1000, 0)
	f := NewFairShare(2)
	for _, id := range []string{"a", "b", "c", "d"} {
		if !f.Acquire(id, 1, now) {
			t.Fatalf("tenant %s denied its minimum share of 1", id)
		}
	}
}

func TestFairShareExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	f := NewFairShare(8)
	for i := 0; i < 4; i++ {
		if !f.Acquire("a", 1, now) {
			t.Fatal("a rejected")
		}
		f.Release("a")
	}
	f.Acquire("b", 1, now)
	f.Release("b")
	if got := f.Share("a", 1, now); got != 4 {
		t.Fatalf("contended Share(a) = %d, want 4", got)
	}
	// b goes idle past the window; a's share recovers to full capacity.
	later := now.Add(3 * time.Second)
	if got := f.Share("a", 1, later); got != 8 {
		t.Fatalf("post-expiry Share(a) = %d, want 8", got)
	}
}

func TestFairShareUnbalancedReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	NewFairShare(4).Release("ghost")
}
