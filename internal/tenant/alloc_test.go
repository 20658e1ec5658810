package tenant

import (
	"io"
	"testing"
	"time"

	"repro/internal/allocbudget"
)

// TestAllocBudgets pins the resident-hit path of Registry.Get at zero
// allocations per op: it runs once per request, so a single escape
// there taxes every query of every tenant.
func TestAllocBudgets(t *testing.T) {
	r := NewRegistry(Config[*fakeEngine]{
		New:  func(id string) (*fakeEngine, error) { return &fakeEngine{}, nil },
		Load: func(id string, rd io.Reader) (*fakeEngine, error) { return loadFake(rd) },
		Now:  func() time.Time { return time.Unix(1000, 0) },
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
}
