package tenant

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mustAdmit fails the test unless Acquire admits the query.
func mustAdmit(t *testing.T, a *Admission, id string, lim Limits, now time.Time) {
	t.Helper()
	if err := a.Acquire(id, lim, now); err != nil {
		t.Fatalf("Acquire(%s): %v", id, err)
	}
}

// wantReason fails the test unless err is a *LimitError for reason.
func wantReason(t *testing.T, err error, reason string) *LimitError {
	t.Helper()
	le := AsLimitError(err)
	if le == nil || le.Reason != reason {
		t.Fatalf("error = %v, want a %s rejection", err, reason)
	}
	return le
}

func TestAdmissionNodeCapacity(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(2)
	mustAdmit(t, a, "a", Limits{}, now)
	mustAdmit(t, a, "a", Limits{}, now)
	for _, id := range []string{"a", "b"} {
		if err := a.Acquire(id, Limits{}, now); err != ErrOverloaded {
			t.Fatalf("Acquire(%s) on a full node = %v, want ErrOverloaded", id, err)
		}
	}
	if a.InUse() != 2 || a.InFlight("a") != 2 || a.InFlight("b") != 0 {
		t.Fatalf("InUse = %d, InFlight(a) = %d, InFlight(b) = %d", a.InUse(), a.InFlight("a"), a.InFlight("b"))
	}
	a.Release("a")
	mustAdmit(t, a, "a", Limits{}, now)
	a.Release("a")
	a.Release("a")
	if a.InUse() != 0 {
		t.Fatalf("InUse after drain = %d", a.InUse())
	}
	if a.Capacity() != 2 {
		t.Fatalf("Capacity = %d", a.Capacity())
	}
}

func TestAdmissionUnbalancedReleasePanics(t *testing.T) {
	a := NewAdmission(1)
	mustAdmit(t, a, "a", Limits{}, time.Unix(1000, 0))
	a.Release("a")
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	a.Release("a")
}

// TestAdmissionConcurrentNeverOverAdmits races many goroutines over a
// few tenants, each capped at one query, on a node of four slots:
// neither bound is ever exceeded, and everything drains.
func TestAdmissionConcurrentNeverOverAdmits(t *testing.T) {
	const capacity, tenants, workers, rounds = 4, 8, 32, 200
	a := NewAdmission(capacity)
	lim := Limits{MaxInFlight: 1}
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = string(rune('a' + i))
	}
	var held, peak atomic.Int64
	var perTenant [tenants]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%tenants]
			for i := 0; i < rounds; i++ {
				if a.Acquire(id, lim, time.Now()) != nil {
					continue
				}
				if n := perTenant[w%tenants].Add(1); n > 1 {
					t.Errorf("tenant %s holds %d queries under MaxInFlight 1", id, n)
				}
				h := held.Add(1)
				for {
					p := peak.Load()
					if h <= p || peak.CompareAndSwap(p, h) {
						break
					}
				}
				held.Add(-1)
				perTenant[w%tenants].Add(-1)
				a.Release(id)
			}
		}(w)
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Fatalf("peak admitted %d > capacity %d", p, capacity)
	}
	if a.InUse() != 0 {
		t.Fatalf("InUse after drain = %d", a.InUse())
	}
}

// TestAdmissionBucketSurvivesIdleSweep checks that the idle sweep does
// not drop a tenant whose bucket is still refilling (which would grant
// it a fresh burst), and does drop it once the bucket is full.
func TestAdmissionBucketSurvivesIdleSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(4)
	lim := Limits{QueriesPerSec: 0.01, Burst: 1}
	mustAdmit(t, a, "slow", lim, now)
	a.Release("slow")
	wantReason(t, a.Acquire("slow", lim, now), ReasonRate)
	// Past the activity window the sweep runs; the bucket needs 100 s.
	later := now.Add(2 * activityWindow)
	wantReason(t, a.Acquire("slow", lim, later), ReasonRate)
	refilled := now.Add(101 * time.Second)
	mustAdmit(t, a, "slow", lim, refilled)
	a.Release("slow")
	// Idle with a bucket refilled again: the next sweep drops the entry.
	a.Share("other", 1, refilled.Add(102*time.Second))
	if _, ok := a.entries["slow"]; ok {
		t.Fatal("idle tenant with a full bucket was not swept")
	}
}

func TestFairShareSingleTenantGetsFullCapacity(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(8)
	for i := 0; i < 8; i++ {
		if err := a.Acquire("solo", Limits{}, now); err != nil {
			t.Fatalf("solo tenant rejected at slot %d of full capacity: %v", i, err)
		}
	}
	if err := a.Acquire("solo", Limits{}, now); err != ErrOverloaded {
		t.Fatalf("admitted past capacity: %v", err)
	}
}

func TestFairShareSplitsUnderContention(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(8)
	// Two equal tenants: each share is 4.
	for i := 0; i < 4; i++ {
		mustAdmit(t, a, "a", Limits{}, now)
		mustAdmit(t, a, "b", Limits{}, now)
	}
	a.Release("b")
	// The node has a free slot, but a already holds its half.
	wantReason(t, a.Acquire("a", Limits{}, now), ReasonShare)
	if got := a.Share("a", 1, now); got != 4 {
		t.Fatalf("Share(a) = %d, want 4", got)
	}
	if a.InUse() != 7 {
		t.Fatalf("InUse = %d after a share rejection, want 7", a.InUse())
	}
}

func TestFairShareWeights(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(12)
	// weight 2 vs weight 1: shares 8 and 4.
	mustAdmit(t, a, "heavy", Limits{Weight: 2}, now)
	mustAdmit(t, a, "light", Limits{Weight: 1}, now)
	if got := a.Share("heavy", 2, now); got != 8 {
		t.Fatalf("Share(heavy) = %d, want 8", got)
	}
	if got := a.Share("light", 1, now); got != 4 {
		t.Fatalf("Share(light) = %d, want 4", got)
	}
}

func TestFairShareMinimumOne(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(2)
	// Four active tenants on two slots: capacity*weight/activeWeight
	// rounds to 0, and each still gets one.
	for round := 0; round < 2; round++ {
		for _, id := range []string{"a", "b", "c", "d"} {
			if err := a.Acquire(id, Limits{}, now); err != nil {
				t.Fatalf("tenant %s denied its minimum share of 1: %v", id, err)
			}
			a.Release(id)
		}
	}
	if got := a.Share("a", 1, now); got != 1 {
		t.Fatalf("Share(a) = %d, want 1", got)
	}
}

func TestFairShareExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(8)
	for i := 0; i < 4; i++ {
		mustAdmit(t, a, "a", Limits{}, now)
		a.Release("a")
	}
	mustAdmit(t, a, "b", Limits{}, now)
	a.Release("b")
	if got := a.Share("a", 1, now); got != 4 {
		t.Fatalf("contended Share(a) = %d, want 4", got)
	}
	// b goes idle past the window; a's share recovers to full capacity.
	later := now.Add(3 * time.Second)
	if got := a.Share("a", 1, later); got != 8 {
		t.Fatalf("post-expiry Share(a) = %d, want 8", got)
	}
}

func TestFairShareUnbalancedReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	NewAdmission(4).Release("ghost")
}

func TestLimiterRate(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(8)
	lim := Limits{QueriesPerSec: 2, Burst: 2}
	for i := 0; i < 2; i++ {
		if err := a.Acquire("t1", lim, now); err != nil {
			t.Fatalf("burst query %d rejected: %v", i, err)
		}
		a.Release("t1")
	}
	le := wantReason(t, a.Acquire("t1", lim, now), ReasonRate)
	if le.RetryAfter <= 0 || le.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s]", le.RetryAfter)
	}
	// Tokens refill with time.
	if err := a.Acquire("t1", lim, now.Add(time.Second)); err != nil {
		t.Fatalf("post-refill query rejected: %v", err)
	}
	a.Release("t1")
	if a.InFlight("t1") != 0 {
		t.Fatalf("InFlight = %d", a.InFlight("t1"))
	}
}

// TestLimiterTinyRate checks a rate so small that the wait for the next
// token overflows a Duration: the tenant is still refused, with a
// positive hint.
func TestLimiterTinyRate(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(8)
	lim := Limits{QueriesPerSec: 1e-12, Burst: 1}
	mustAdmit(t, a, "t1", lim, now)
	a.Release("t1")
	if le := wantReason(t, a.Acquire("t1", lim, now), ReasonRate); le.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", le.RetryAfter)
	}
}

func TestLimiterInFlight(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAdmission(8)
	lim := Limits{MaxInFlight: 2}
	mustAdmit(t, a, "t1", lim, now)
	mustAdmit(t, a, "t1", lim, now)
	wantReason(t, a.Acquire("t1", lim, now), ReasonInFlight)
	a.Release("t1")
	if err := a.Acquire("t1", lim, now); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestLimiterUnlimitedReturnsNilInterface(t *testing.T) {
	a := NewAdmission(1)
	// A typed-nil *LimitError stored in an error interface would make
	// err != nil; guard against that footgun explicitly.
	if err := a.Acquire("t1", Limits{}, time.Unix(1, 0)); err != nil {
		t.Fatalf("unlimited tenant rejected: %v", err)
	}
	a.Release("t1")
}
