package tenant

import (
	"io"
	"testing"
	"time"

	"repro/internal/allocbudget"
)

// TestAllocBudgets pins the resident-hit path of Registry.Get and the
// admission of a known tenant at zero allocations per op: each runs once
// per request, so a single escape there taxes every query of every
// tenant.
func TestAllocBudgets(t *testing.T) {
	r := NewRegistry(Config[*fakeEngine]{
		New:  func(id string) (*fakeEngine, error) { return &fakeEngine{}, nil },
		Load: func(id string, rd io.Reader) (*fakeEngine, error) { return loadFake(rd) },
	})
	warm, err := r.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()

	allocbudget.Gate(t, "tenant/Registry.Get", func() {
		tn, err := r.Get("hot")
		if err != nil {
			t.Fatal(err)
		}
		tn.Release()
	})

	a := NewAdmission(4)
	lim := Limits{QueriesPerSec: 1e9, MaxInFlight: 2}
	now := time.Unix(1000, 0)
	if err := a.Acquire("hot", lim, now); err != nil {
		t.Fatal(err)
	}
	a.Release("hot")
	allocbudget.Gate(t, "tenant/Admission.Acquire", func() {
		if err := a.Acquire("hot", lim, now); err != nil {
			t.Fatal(err)
		}
		a.Release("hot")
	})
}
