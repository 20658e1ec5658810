package tenant

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEngine is a minimal Engine for registry tests: an append-only
// list of records with an epoch that advances on every write.
type fakeEngine struct {
	mu    sync.Mutex
	rows  []string
	epoch atomic.Uint64
}

func (f *fakeEngine) Add(row string) {
	f.mu.Lock()
	f.rows = append(f.rows, row)
	f.mu.Unlock()
	f.epoch.Add(1)
}

func (f *fakeEngine) Rows() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.rows...)
}

func (f *fakeEngine) Save(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rows {
		if _, err := fmt.Fprintln(w, r); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeEngine) Epoch() uint64 { return f.epoch.Load() }

func loadFake(r io.Reader) (*fakeEngine, error) {
	e := &fakeEngine{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		e.rows = append(e.rows, sc.Text())
		e.epoch.Add(1)
	}
	return e, sc.Err()
}

func testConfig(t *testing.T, spill bool) Config[*fakeEngine] {
	t.Helper()
	cfg := Config[*fakeEngine]{
		New:  func(id string) (*fakeEngine, error) { return &fakeEngine{}, nil },
		Load: func(id string, r io.Reader) (*fakeEngine, error) { return loadFake(r) },
	}
	if spill {
		cfg.SpillDir = t.TempDir()
	}
	return cfg
}

func mustGet(t *testing.T, r *Registry[*fakeEngine], id string) *Tenant[*fakeEngine] {
	t.Helper()
	tn, err := r.Get(id)
	if err != nil {
		t.Fatalf("Get(%s): %v", id, err)
	}
	return tn
}

func TestRegistryLazyCreateAndHit(t *testing.T) {
	var created atomic.Int32
	cfg := testConfig(t, false)
	inner := cfg.New
	cfg.New = func(id string) (*fakeEngine, error) { created.Add(1); return inner(id) }
	r := NewRegistry(cfg)

	a := mustGet(t, r, "a")
	a.Engine().Add("x")
	a.Release()
	a2 := mustGet(t, r, "a")
	if a2 != a {
		t.Fatal("second Get returned a different tenant")
	}
	if got := a2.Engine().Rows(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("engine state lost across Gets: %v", got)
	}
	a2.Release()
	if created.Load() != 1 {
		t.Fatalf("created %d engines, want 1", created.Load())
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRegistryEvictSpillReload(t *testing.T) {
	cfg := testConfig(t, true)
	cfg.MaxActive = 2
	r := NewRegistry(cfg)

	a := mustGet(t, r, "a")
	a.Engine().Add("a1")
	a.Engine().Add("a2")
	a.Release()
	mustGet(t, r, "b").Release()

	// Admitting c at MaxActive=2 must evict someone (a or b: both cold
	// after the clock clears their reference bits).
	mustGet(t, r, "c").Release()
	if r.Len() != 2 {
		t.Fatalf("Len after eviction = %d, want 2", r.Len())
	}
	if r.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", r.Evictions())
	}

	// Whoever was evicted reloads transparently with its data intact.
	a2 := mustGet(t, r, "a")
	if got := a2.Engine().Rows(); len(got) != 2 || got[0] != "a1" || got[1] != "a2" {
		t.Fatalf("tenant a state after evict/reload = %v", got)
	}
	a2.Release()
}

func TestRegistryFullWithoutSpill(t *testing.T) {
	cfg := testConfig(t, false)
	cfg.MaxActive = 1
	r := NewRegistry(cfg)
	mustGet(t, r, "a").Release()
	_, err := r.Get("b")
	le := AsLimitError(err)
	if le == nil || le.Reason != ReasonFull {
		t.Fatalf("over-capacity Get = %v, want ReasonFull", err)
	}
	// Tenant a is untouched.
	mustGet(t, r, "a").Release()
}

func TestRegistryNeverEvictsHeldTenant(t *testing.T) {
	cfg := testConfig(t, true)
	cfg.MaxActive = 1
	r := NewRegistry(cfg)
	a := mustGet(t, r, "a") // hold a
	_, err := r.Get("b")
	if le := AsLimitError(err); le == nil || le.Reason != ReasonFull {
		t.Fatalf("Get(b) with a held = %v, want ReasonFull", err)
	}
	a.Release()
	mustGet(t, r, "b").Release() // now a is evictable
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRegistryFailedBuildUnpublishes(t *testing.T) {
	boom := errors.New("boom")
	fail := true
	cfg := testConfig(t, false)
	cfg.New = func(id string) (*fakeEngine, error) {
		if fail {
			return nil, boom
		}
		return &fakeEngine{}, nil
	}
	r := NewRegistry(cfg)
	if _, err := r.Get("a"); !errors.Is(err, boom) {
		t.Fatalf("failed build error = %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("failed tenant left resident, Len = %d", r.Len())
	}
	fail = false
	mustGet(t, r, "a").Release() // retry succeeds
}

func TestRegistrySaveDirtyAndClean(t *testing.T) {
	cfg := testConfig(t, true)
	r := NewRegistry(cfg)
	a := mustGet(t, r, "a")
	a.Engine().Add("row")
	a.Release()
	mustGet(t, r, "b").Release() // never written: epoch 0 == savedEpoch 0, clean

	if err := r.SaveDirty(); err != nil {
		t.Fatal(err)
	}
	if r.Spills() != 1 {
		t.Fatalf("Spills = %d, want 1 (only the dirty tenant)", r.Spills())
	}
	if _, err := os.Stat(filepath.Join(cfg.SpillDir, "a.tir")); err != nil {
		t.Fatalf("dirty tenant not spilled: %v", err)
	}
	// A second drain with no new writes is a no-op.
	if err := r.SaveDirty(); err != nil {
		t.Fatal(err)
	}
	if r.Spills() != 1 {
		t.Fatalf("clean tenant re-spilled, Spills = %d", r.Spills())
	}
}

func TestRegistryExplicitEvict(t *testing.T) {
	cfg := testConfig(t, true)
	r := NewRegistry(cfg)
	a := mustGet(t, r, "a")
	a.Engine().Add("row")
	if err := r.Evict("a"); err == nil {
		t.Fatal("evicted a held tenant")
	}
	a.Release()
	if err := r.Evict("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Evict("a"); err == nil {
		t.Fatal("evicted a non-resident tenant")
	}
	a2 := mustGet(t, r, "a")
	if got := a2.Engine().Rows(); len(got) != 1 || got[0] != "row" {
		t.Fatalf("state after explicit evict = %v", got)
	}
	a2.Release()
}

func TestRegistryPeekDoesNotCreate(t *testing.T) {
	r := NewRegistry(testConfig(t, false))
	if _, ok := r.Peek("ghost"); ok {
		t.Fatal("Peek materialized a tenant")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
	mustGet(t, r, "a").Release()
	if tn, ok := r.Peek("a"); !ok || tn.ID() != "a" {
		t.Fatal("Peek missed a resident tenant")
	}
}

func TestRegistryConcurrentGetSingleCreation(t *testing.T) {
	var created atomic.Int32
	cfg := testConfig(t, false)
	cfg.New = func(id string) (*fakeEngine, error) {
		created.Add(1)
		time.Sleep(2 * time.Millisecond) // widen the race window
		return &fakeEngine{}, nil
	}
	r := NewRegistry(cfg)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn, err := r.Get("a")
			if err != nil {
				t.Error(err)
				return
			}
			tn.Release()
		}()
	}
	wg.Wait()
	if created.Load() != 1 {
		t.Fatalf("created %d engines for one tenant, want 1", created.Load())
	}
}

func TestRegistryOnCreateTag(t *testing.T) {
	cfg := testConfig(t, false)
	cfg.OnCreate = func(tn *Tenant[*fakeEngine]) { tn.SetTag("metrics:" + tn.ID()) }
	var evicted []string
	cfg.OnEvict = func(tn *Tenant[*fakeEngine]) { evicted = append(evicted, tn.ID()) }
	cfg.SpillDir = t.TempDir()
	r := NewRegistry(cfg)
	a := mustGet(t, r, "a")
	if a.Tag() != "metrics:a" {
		t.Fatalf("Tag = %v", a.Tag())
	}
	a.Release()
	if err := r.Evict("a"); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("OnEvict calls = %v", evicted)
	}
}

func TestRegistryEach(t *testing.T) {
	r := NewRegistry(testConfig(t, false))
	for _, id := range []string{"a", "b", "c"} {
		mustGet(t, r, id).Release()
	}
	var seen []string
	r.Each(func(tn *Tenant[*fakeEngine]) { seen = append(seen, tn.ID()) })
	if len(seen) != 3 {
		t.Fatalf("Each visited %v", seen)
	}
	joined := strings.Join(seen, ",")
	for _, id := range []string{"a", "b", "c"} {
		if !strings.Contains(joined, id) {
			t.Fatalf("Each missed %s: %v", id, seen)
		}
	}
}

func TestRegistryLimitsWiring(t *testing.T) {
	cfg := testConfig(t, false)
	cfg.Limits = func(id string) Limits {
		if id == "capped" {
			return Limits{MaxInFlight: 1, Weight: 3}
		}
		return Limits{}
	}
	r := NewRegistry(cfg)
	c := mustGet(t, r, "capped")
	if got := c.Limits().Weight; got != 3 {
		t.Fatalf("Weight = %d", got)
	}
	a := NewAdmission(8)
	if err := a.Acquire(c.ID(), c.Limits(), time.Unix(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(c.ID(), c.Limits(), time.Unix(1000, 0)); AsLimitError(err) == nil {
		t.Fatal("per-tenant inflight cap not wired")
	}
	a.Release(c.ID())
	c.Release()
}
