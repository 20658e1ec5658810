package tenant

import (
	"fmt"
	"math"
	"time"
)

// Limits is a tenant's static resource envelope. The zero value is
// fully unlimited with weight 1, so operators only configure what they
// want to constrain.
type Limits struct {
	// QueriesPerSec caps the sustained query rate via a token bucket.
	// Zero disables rate limiting.
	QueriesPerSec float64 `json:"queries_per_sec"`
	// Burst is the token-bucket depth; it defaults to
	// max(1, ceil(QueriesPerSec)) when rate limiting is enabled.
	Burst int `json:"burst"`
	// MaxInFlight caps the tenant's concurrent queries. Zero disables
	// the cap (the node's capacity still bounds the process).
	MaxInFlight int `json:"max_in_flight"`
	// MaxMemObjects caps the engine's memtable object count; inserts
	// beyond it are rejected until a compaction folds the memtable in.
	// Zero disables the quota.
	MaxMemObjects int `json:"max_mem_objects"`
	// MaxSizeBytes caps the engine's estimated resident size; inserts
	// beyond it are rejected. Zero disables the quota.
	MaxSizeBytes int64 `json:"max_size_bytes"`
	// Weight is the tenant's fair-share weight; tenants receive worker
	// capacity proportional to weight. Zero means 1.
	Weight int `json:"weight"`
}

// EffectiveWeight returns the fair-share weight with the zero-value
// default applied.
func (l Limits) EffectiveWeight() int {
	if l.Weight <= 0 {
		return 1
	}
	return l.Weight
}

// Rejection reasons carried by LimitError and used as metric label
// values. The set is fixed so per-tenant rejection counters have a
// bounded label space.
const (
	ReasonRate     = "rate"          // token bucket empty
	ReasonInFlight = "inflight"      // per-tenant concurrency cap
	ReasonMemQuota = "mem_quota"     // memtable object quota
	ReasonSize     = "size_quota"    // resident-size quota
	ReasonShare    = "share"         // fair-share overage under contention
	ReasonFull     = "registry_full" // no evictable slot for a new tenant
)

// Reasons lists every rejection reason, in a fixed order, for metric
// pre-registration.
var Reasons = []string{ReasonRate, ReasonInFlight, ReasonMemQuota, ReasonSize, ReasonShare, ReasonFull}

// LimitError reports a request rejected by a tenant limit. RetryAfter
// is a hint for the Retry-After header; zero means "retry immediately
// after reducing usage" (quotas, concurrency caps).
type LimitError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("tenant %s over limit: %s", e.Tenant, e.Reason)
}

// AsLimitError unwraps err as a *LimitError, or returns nil. Callers
// branch on it to map limit rejections to 429 responses.
func AsLimitError(err error) *LimitError {
	le, ok := err.(*LimitError)
	if !ok {
		return nil
	}
	return le
}

// burst is the token-bucket depth: Burst, or max(1, ceil(QueriesPerSec)).
func (l Limits) burst() float64 {
	if l.Burst > 0 {
		return float64(l.Burst)
	}
	return max(1, math.Ceil(l.QueriesPerSec))
}

// CheckIngest admits one insert for tenant id against the memtable and
// size quotas, given the engine's current memtable object count and
// estimated resident size. Quota checks are advisory reads of a moving
// value, so concurrent inserts may overshoot by the number of in-flight
// writers — the quota bounds growth, it is not a hard byte ceiling.
func (l Limits) CheckIngest(id string, memObjects int, sizeBytes int64) error {
	if q := l.MaxMemObjects; q > 0 && memObjects >= q {
		return &LimitError{Tenant: id, Reason: ReasonMemQuota}
	}
	if q := l.MaxSizeBytes; q > 0 && sizeBytes >= q {
		return &LimitError{Tenant: id, Reason: ReasonSize}
	}
	return nil
}
