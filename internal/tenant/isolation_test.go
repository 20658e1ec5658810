package tenant_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	temporalir "repro"
	"repro/internal/tenant"
)

// The differential isolation harness: every tenant runs a deterministic
// seeded workload of inserts, deletes, compactions and queries, and the
// digest of everything it observes must be byte-identical whether the
// tenant runs alone on a private engine (the oracle) or as one of 16
// tenants hammering a small shared registry concurrently — across
// eviction, spill and reload cycles. Any cross-tenant bleed (shared
// state, id reuse, lost writes on spill) shifts at least one digest.
//
// Queries cover Search, SearchAny and Timeline. TopK is exercised
// elsewhere: its scores depend on when the scorer snapshot was last
// refreshed relative to inserts, which legitimately differs between a
// single run and a run interrupted by evict/reload.

const (
	isoTenants = 16
	isoOps     = 300
)

// isoVocab is the shared term space; isolation must come from the
// engines, not from disjoint vocabularies.
var isoVocab = []string{
	"alpha", "beta", "gamma", "delta", "epsilon",
	"zeta", "eta", "theta", "iota", "kappa",
}

// isoDigest accumulates everything a workload observes.
type isoDigest struct {
	h interface{ Write(p []byte) (int, error) }
}

func (d isoDigest) u64(v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

// runIsolationWorkload executes tenant seed's deterministic op sequence,
// calling hold to obtain the engine for each op (the concurrent run
// re-resolves the tenant every time so evictions interleave; the oracle
// returns the same engine always). It returns the workload digest.
func runIsolationWorkload(t *testing.T, seed int64, hold func(func(e *temporalir.Engine))) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hash := sha256.New()
	d := isoDigest{h: hash}
	var live []temporalir.ObjectID

	terms := func(n int) []string {
		out := make([]string, 0, n)
		for len(out) < n {
			out = append(out, isoVocab[rng.Intn(len(isoVocab))])
		}
		return out
	}
	for op := 0; op < isoOps; op++ {
		lo := temporalir.Timestamp(rng.Intn(1000))
		hi := lo + temporalir.Timestamp(rng.Intn(200))
		switch k := rng.Intn(10); {
		case k < 5: // insert
			tt := terms(1 + rng.Intn(3))
			hold(func(e *temporalir.Engine) {
				id := e.Insert(lo, hi, tt...)
				live = append(live, id)
				d.u64(uint64(id))
			})
		case k < 6 && len(live) > 0: // delete a known id
			victim := rng.Intn(len(live))
			id := live[victim]
			live = append(live[:victim], live[victim+1:]...)
			hold(func(e *temporalir.Engine) {
				if err := e.Delete(id); err != nil {
					t.Errorf("seed %d op %d: delete %d: %v", seed, op, id, err)
				}
				d.u64(uint64(id))
			})
		case k < 8: // containment search
			tt := terms(1 + rng.Intn(2))
			hold(func(e *temporalir.Engine) {
				sumIDs(d, e.Search(lo, hi, tt...))
			})
		case k < 9: // disjunctive search
			tt := terms(2)
			hold(func(e *temporalir.Engine) {
				sumIDs(d, e.SearchAny(lo, hi, tt...))
			})
		default: // timeline histogram
			tt := terms(1)
			hold(func(e *temporalir.Engine) {
				for _, b := range e.Timeline(lo, hi+1, 8, tt...) {
					d.u64(uint64(b.Count))
				}
			})
		}
		if op%60 == 59 { // periodic compaction folds the memtable in
			hold(func(e *temporalir.Engine) {
				if _, err := e.Compact(context.Background()); err != nil {
					t.Errorf("seed %d op %d: compact: %v", seed, op, err)
				}
			})
		}
	}
	// Final full read-back: every live object's interval and terms.
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	hold(func(e *temporalir.Engine) {
		for _, id := range live {
			iv, tt, err := e.Object(id)
			if err != nil {
				t.Errorf("seed %d: object %d: %v", seed, id, err)
				continue
			}
			d.u64(uint64(id))
			d.u64(uint64(iv.Start))
			d.u64(uint64(iv.End))
			for _, term := range tt {
				d.h.Write([]byte(term))
			}
		}
	})
	return hex.EncodeToString(hash.Sum(nil))
}

// sumIDs folds a result set into the digest in canonical order.
func sumIDs(d isoDigest, ids []temporalir.ObjectID) {
	sorted := append([]temporalir.ObjectID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	d.u64(uint64(len(sorted)))
	for _, id := range sorted {
		d.u64(uint64(id))
	}
}

// TestDifferentialIsolation is the acceptance test of the tenancy
// subsystem: 16 tenants run their workloads concurrently on a registry
// with room for only 4, so engines constantly evict, spill and reload
// mid-workload; each tenant's digest must equal its single-tenant
// oracle digest exactly.
func TestDifferentialIsolation(t *testing.T) {
	method, opts := temporalir.IRHintPerf, temporalir.Options{}

	// Oracle digests: each tenant alone on a private engine.
	oracle := make([]string, isoTenants)
	for i := range oracle {
		eng, err := temporalir.NewBuilder().Build(method, opts)
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = runIsolationWorkload(t, int64(1000+i), func(f func(e *temporalir.Engine)) { f(eng) })
	}

	reg := tenant.NewRegistry(tenant.Config[*temporalir.Engine]{
		New: func(id string) (*temporalir.Engine, error) {
			return temporalir.NewBuilder().Build(method, opts)
		},
		Load: func(id string, r io.Reader) (*temporalir.Engine, error) {
			return temporalir.LoadEngine(r, method, opts)
		},
		MaxActive: 4,
		SpillDir:  t.TempDir(),
	})

	var wg sync.WaitGroup
	got := make([]string, isoTenants)
	for i := 0; i < isoTenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("tenant-%02d", i)
			// Re-resolve the tenant for every operation: between ops the
			// tenant is unheld, so the clock hand is free to evict it and
			// the next op transparently reloads from spill.
			got[i] = runIsolationWorkload(t, int64(1000+i), func(f func(e *temporalir.Engine)) {
				tn, err := reg.Get(id)
				// Sixteen workers share four slots: when all four are
				// held at once the registry refuses a fifth tenant (the
				// server's 429). A client retries; so does the test.
				for ; err != nil && tenant.AsLimitError(err) != nil && tenant.AsLimitError(err).Reason == tenant.ReasonFull; tn, err = reg.Get(id) {
					runtime.Gosched()
				}
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				f(tn.Engine())
				tn.Release()
			})
		}(i)
	}
	wg.Wait()

	for i := range oracle {
		if got[i] != oracle[i] {
			t.Errorf("tenant %02d diverged from its single-tenant oracle:\n  concurrent %s\n  oracle     %s",
				i, got[i], oracle[i])
		}
	}
	if reg.Evictions() == 0 {
		t.Error("no evictions occurred; the workload did not exercise spill/reload")
	}
	t.Logf("evictions=%d spills=%d", reg.Evictions(), reg.Spills())
}
