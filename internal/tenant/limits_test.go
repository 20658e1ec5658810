package tenant

import (
	"errors"
	"testing"
	"time"
)

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"a", "default", "acme-prod_1", "A.B-c", "0"} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v", ok, err)
		}
	}
	bad := []string{"", ".hidden", "a/b", "a b", "a\n", "über", string(make([]byte, MaxIDLen+1))}
	for _, id := range bad {
		if err := ValidateID(id); err == nil {
			t.Errorf("ValidateID(%q) accepted", id)
		}
	}
}

func TestLimiterRate(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLimiter("t1", Limits{QueriesPerSec: 2, Burst: 2}, now)
	for i := 0; i < 2; i++ {
		if err := l.AcquireQuery(now); err != nil {
			t.Fatalf("burst query %d rejected: %v", i, err)
		}
		l.ReleaseQuery()
	}
	err := l.AcquireQuery(now)
	le := AsLimitError(err)
	if le == nil || le.Reason != ReasonRate {
		t.Fatalf("over-rate error = %v", err)
	}
	if le.RetryAfter <= 0 || le.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s]", le.RetryAfter)
	}
	// Tokens refill with time.
	if err := l.AcquireQuery(now.Add(time.Second)); err != nil {
		t.Fatalf("post-refill query rejected: %v", err)
	}
	l.ReleaseQuery()
	if l.InFlight() != 0 {
		t.Fatalf("InFlight = %d", l.InFlight())
	}
}

func TestLimiterInFlight(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLimiter("t1", Limits{MaxInFlight: 2}, now)
	if err := l.AcquireQuery(now); err != nil {
		t.Fatal(err)
	}
	if err := l.AcquireQuery(now); err != nil {
		t.Fatal(err)
	}
	err := l.AcquireQuery(now)
	if le := AsLimitError(err); le == nil || le.Reason != ReasonInFlight {
		t.Fatalf("over-inflight error = %v", err)
	}
	l.ReleaseQuery()
	if err := l.AcquireQuery(now); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestLimiterUnlimitedReturnsNilInterface(t *testing.T) {
	l := NewLimiter("t1", Limits{}, time.Unix(0, 0))
	// A typed-nil *LimitError stored in an error interface would make
	// err != nil; guard against that footgun explicitly.
	if err := l.AcquireQuery(time.Unix(1, 0)); err != nil {
		t.Fatalf("unlimited limiter rejected: %v", err)
	}
	l.ReleaseQuery()
}

func TestCheckIngestQuotas(t *testing.T) {
	l := NewLimiter("t1", Limits{MaxMemObjects: 10, MaxSizeBytes: 1 << 20}, time.Unix(0, 0))
	if err := l.CheckIngest(9, 100); err != nil {
		t.Fatalf("under quota rejected: %v", err)
	}
	if le := AsLimitError(l.CheckIngest(10, 100)); le == nil || le.Reason != ReasonMemQuota {
		t.Fatal("mem quota not enforced")
	}
	if le := AsLimitError(l.CheckIngest(0, 1<<20)); le == nil || le.Reason != ReasonSize {
		t.Fatal("size quota not enforced")
	}
	unlimited := NewLimiter("t2", Limits{}, time.Unix(0, 0))
	if err := unlimited.CheckIngest(1<<30, 1<<40); err != nil {
		t.Fatalf("unlimited tenant rejected: %v", err)
	}
}

func TestAsLimitError(t *testing.T) {
	if AsLimitError(errors.New("plain")) != nil {
		t.Fatal("plain error classified as limit error")
	}
	if AsLimitError(nil) != nil {
		t.Fatal("nil classified as limit error")
	}
	le := &LimitError{Tenant: "a", Reason: ReasonRate}
	if AsLimitError(le) != le {
		t.Fatal("limit error not unwrapped")
	}
	if le.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestEffectiveWeight(t *testing.T) {
	if (Limits{}).EffectiveWeight() != 1 {
		t.Fatal("zero weight should default to 1")
	}
	if (Limits{Weight: 4}).EffectiveWeight() != 4 {
		t.Fatal("explicit weight ignored")
	}
}
