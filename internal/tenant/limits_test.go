package tenant

import (
	"errors"
	"testing"
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

func TestCheckIngestQuotas(t *testing.T) {
	l := Limits{MaxMemObjects: 10, MaxSizeBytes: 1 << 20}
	if err := l.CheckIngest("t1", 9, 100); err != nil {
		t.Fatalf("under quota rejected: %v", err)
	}
	if le := AsLimitError(l.CheckIngest("t1", 10, 100)); le == nil || le.Reason != ReasonMemQuota || le.Tenant != "t1" {
		t.Fatal("mem quota not enforced")
	}
	if le := AsLimitError(l.CheckIngest("t1", 0, 1<<20)); le == nil || le.Reason != ReasonSize {
		t.Fatal("size quota not enforced")
	}
	if err := (Limits{}).CheckIngest("t2", 1<<30, 1<<40); err != nil {
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
