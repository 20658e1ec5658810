package tenant

import (
	"errors"
	"math"
	"sync"
	"time"
)

// ErrOverloaded is Admission.Acquire's answer when the node holds its
// full capacity of queries: load shedding (503), not a tenant limit.
var ErrOverloaded = errors.New("tenant: node at capacity")

// activityWindow is the activity window: long enough that a tenant
// issuing a query a second stays "active", short enough that a departed
// tenant stops taxing others quickly.
const activityWindow = time.Second

// Admission is the node's one admission controller. Under one mutex it
// holds, per tenant id, a token bucket, the count of admitted queries,
// the fair-share weight and the last time the tenant asked; and for the
// node, the count of admitted queries and the capacity. Acquire checks,
// in this order:
//
//  1. the tenant's own limits: its in-flight cap, then its query rate
//     (429, a *LimitError);
//  2. the node's capacity (503, ErrOverloaded);
//  3. the tenant's fair share (429, a *LimitError).
//
// A tenant's fair share is
//
//	share = max(1, capacity * weight / activeWeight)
//
// slots, where activeWeight sums the weights of the tenants that reached
// the share check within the activity window. A lone tenant gets the
// whole node; when more wake up, shares contract so no tenant can occupy
// the node while others wait.
//
// Acquire takes a slot only once every check has passed, so a rejection
// has nothing to give back, but a request turned away by the node or by
// its share has still spent its token. The state is keyed by id, not
// held by the registry's Tenant, so evicting a tenant does not refill
// its bucket.
type Admission struct {
	capacity int

	mu sync.Mutex
	// entries holds each tenant's admission state.
	// Guarded by mu.
	entries map[string]*entry
	// total counts the queries admitted and not yet released.
	// Guarded by mu.
	total int
	// activeWeight is the sum of the entries' weights.
	// Guarded by mu.
	activeWeight int
	// lastSweep is when idle entries were last collected.
	// Guarded by mu.
	lastSweep time.Time
}

// entry is one tenant's admission state.
type entry struct {
	inUse  int       // admitted and not yet released
	weight int       // the tenant's part of activeWeight; 0 while inactive
	last   time.Time // the tenant's latest Acquire

	// The token bucket: tokens as of refilled, accruing at rate per
	// second up to burst.
	tokens   float64
	refilled time.Time
	rate     float64
	burst    float64
}

// NewAdmission returns a controller admitting at most capacity queries
// at once across all tenants. Capacity must be positive.
func NewAdmission(capacity int) *Admission {
	if capacity <= 0 {
		panic("tenant: admission capacity must be positive") // construction-time programming error
	}
	return &Admission{capacity: capacity, entries: make(map[string]*entry)}
}

// Acquire admits one query for tenant id under lim, at time now. It
// returns nil, a *LimitError (the tenant's in-flight cap, rate or fair
// share) or ErrOverloaded. On nil the caller must call Release.
func (a *Admission) Acquire(id string, lim Limits, now time.Time) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sweepLocked(now)
	e := a.entries[id]
	if e == nil {
		// The bucket starts full so a fresh tenant can burst at once.
		e = &entry{tokens: lim.burst(), refilled: now}
		a.entries[id] = e
	}
	e.last = now
	e.rate, e.burst = lim.QueriesPerSec, lim.burst()
	if n := lim.MaxInFlight; n > 0 && e.inUse >= n {
		return &LimitError{Tenant: id, Reason: ReasonInFlight}
	}
	if e.rate > 0 {
		e.refill(now)
		if e.tokens < 1 {
			// A tiny rate makes the wait overflow a Duration; cap it.
			wait := time.Duration(math.MaxInt64)
			if s := (1 - e.tokens) / e.rate; s < wait.Seconds() {
				wait = time.Duration(s * float64(time.Second))
			}
			return &LimitError{Tenant: id, Reason: ReasonRate, RetryAfter: wait}
		}
		e.tokens--
	}
	if a.total >= a.capacity {
		return ErrOverloaded
	}
	w := lim.EffectiveWeight()
	a.activeWeight += w - e.weight
	e.weight = w
	if e.inUse >= max(1, a.capacity*w/a.activeWeight) {
		return &LimitError{Tenant: id, Reason: ReasonShare}
	}
	e.inUse++
	a.total++
	return nil
}

// Release returns the slot taken by a successful Acquire for id.
func (a *Admission) Release(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entries[id]
	if e == nil || e.inUse <= 0 {
		panic("tenant: admission released more than acquired") // caller bug: unbalanced Release
	}
	e.inUse--
	a.total--
}

// InFlight returns the queries tenant id holds.
func (a *Admission) InFlight(id string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.entries[id]; e != nil {
		return e.inUse
	}
	return 0
}

// InUse returns the queries the node holds.
func (a *Admission) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Capacity returns the node's admission bound.
func (a *Admission) Capacity() int { return a.capacity }

// Share reports the fair share a tenant of the given weight would have
// now, for stats.
func (a *Admission) Share(id string, weight int, now time.Time) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sweepLocked(now)
	aw := a.activeWeight
	if e := a.entries[id]; e == nil || e.weight == 0 {
		aw += weight // would join the active set
	}
	return max(1, a.capacity*weight/aw)
}

// sweepLocked runs at most once per window, so steady-state Acquire
// stays O(1). A tenant idle past the window with no slot held leaves the
// active set, returning its weight to the pool. Its entry goes only once
// its bucket has refilled, so the sweep never grants a fresh burst
// early. Callers hold mu.
func (a *Admission) sweepLocked(now time.Time) {
	if now.Sub(a.lastSweep) < activityWindow {
		return
	}
	a.lastSweep = now
	for id, e := range a.entries { // lint:map-order-ok expiry sweep; order-insensitive
		if e.inUse > 0 || now.Sub(e.last) <= activityWindow {
			continue
		}
		a.activeWeight -= e.weight
		e.weight = 0
		if e.rate > 0 {
			e.refill(now)
		}
		if e.rate <= 0 || e.tokens >= e.burst {
			delete(a.entries, id)
		}
	}
}

// refill credits the tokens accrued since the last refill, up to the
// burst. The clock is caller-supplied and may be non-monotonic across
// goroutines, so the refill mark never moves backwards.
func (e *entry) refill(now time.Time) {
	if dt := now.Sub(e.refilled); dt > 0 {
		e.tokens = min(e.burst, e.tokens+dt.Seconds()*e.rate)
		e.refilled = now
	}
}
