package tenant

import (
	"sync"
	"time"
)

// FairShare is weighted max-share admission over a fixed capacity: a
// tenant may hold at most
//
//	share = max(1, capacity * weight / activeWeight)
//
// slots, where activeWeight sums the weights of tenants seen inside
// the activity window. With one active tenant the share is the whole
// capacity (no throughput sacrificed when there is no contention);
// when more tenants wake up, shares contract so no tenant can occupy
// the whole pool while others queue. The count is of tenants *recently
// seen*, not currently holding, so a bursty tenant's share stays
// stable across its own gaps.
//
// FairShare only computes shares; the caller pairs it with an
// exec.Gate that bounds the true total. Admission order matters: check
// the gate first (503, the node is full) and the share second (429,
// this tenant is over its fraction).
type FairShare struct {
	capacity int

	mu sync.Mutex
	// entries tracks per-tenant weight, holds and last activity.
	// irlint:guarded-by mu
	entries map[string]*fairEntry
	// activeWeight is the cached sum of weights of unexpired entries.
	// irlint:guarded-by mu
	activeWeight int
	// lastSweep is when expired entries were last collected.
	// irlint:guarded-by mu
	lastSweep time.Time
}

type fairEntry struct {
	weight int
	inUse  int
	last   time.Time
}

// DefaultWindow is the activity window: long enough that a tenant
// issuing a query a second stays "active", short enough that a departed
// tenant stops taxing others quickly.
const DefaultWindow = time.Second

// NewFairShare returns an admission controller for the given worker
// capacity.
func NewFairShare(capacity int) *FairShare {
	if capacity <= 0 {
		panic("tenant: fair-share capacity must be positive") // lint:panic-ok construction-time programming error
	}
	return &FairShare{
		capacity: capacity,
		entries:  make(map[string]*fairEntry),
	}
}

// Acquire admits one slot for the tenant if it is under its current
// share, marking the tenant active either way. On success the caller
// must call Release.
func (f *FairShare) Acquire(id string, weight int, now time.Time) bool {
	if weight <= 0 {
		weight = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sweepLocked(now)
	// Invariant: activeWeight is exactly the sum of weights of entries
	// in the map. The "active set" is therefore the map itself — up to
	// one window stale for departed tenants, which only makes shares
	// slightly conservative until the next sweep.
	e := f.entries[id]
	if e == nil {
		e = &fairEntry{}
		f.entries[id] = e
		f.activeWeight += weight
	} else if weight != e.weight {
		f.activeWeight += weight - e.weight
	}
	e.weight = weight
	e.last = now

	share := f.capacity * weight / f.activeWeight
	if share < 1 {
		share = 1
	}
	if e.inUse >= share {
		return false
	}
	e.inUse++
	return true
}

// Release returns a slot taken by a successful Acquire.
func (f *FairShare) Release(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.entries[id]
	if e == nil || e.inUse <= 0 {
		panic("tenant: fair-share released more than acquired") // lint:panic-ok caller bug: unbalanced Release
	}
	e.inUse--
}

// Share reports the tenant's current admission bound, for stats.
func (f *FairShare) Share(id string, weight int, now time.Time) int {
	if weight <= 0 {
		weight = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sweepLocked(now)
	aw := f.activeWeight
	if f.entries[id] == nil {
		aw += weight // would join the active set
	}
	share := f.capacity * weight / aw
	if share < 1 {
		share = 1
	}
	return share
}

// sweepLocked drops tenants idle past the window with no held slots,
// returning their weight to the pool. It runs at most once per window
// so steady-state Acquire stays O(1). irlint:locked mu
func (f *FairShare) sweepLocked(now time.Time) {
	if now.Sub(f.lastSweep) < DefaultWindow {
		return
	}
	f.lastSweep = now
	for id, e := range f.entries { // lint:map-order-ok expiry sweep; order-insensitive
		if e.inUse == 0 && now.Sub(e.last) > DefaultWindow {
			f.activeWeight -= e.weight
			delete(f.entries, id)
		}
	}
}
