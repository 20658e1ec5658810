// Package route implements adaptive per-query method routing: a small
// cost model over the query-feature regimes of the paper's Section 5
// sweeps (interval extent, |q.d|, element frequency) picks the index
// family expected to answer a query fastest, and refines itself online
// from observed per-query timings. The engine already maintains
// multiple index builds cheaply via the generational store; the router
// decides which build serves each query.
package route

import (
	"math"
	"sync/atomic"
	"time"
)

// Class abstracts the index families for cost-model seeding, so the
// router stays independent of the root package's Method constants.
type Class uint8

// The eight families of the paper's evaluation.
const (
	ClassTIF Class = iota
	ClassSlicing
	ClassSharding
	ClassBinary
	ClassMerge
	ClassHybrid
	ClassPerf
	ClassSize
	NumClasses
)

// Features are the per-query regime coordinates of the Section 5
// sweeps: extent as a fraction of the data domain, description size,
// and the document-frequency fraction of the rarest query element.
type Features struct {
	ExtentFrac  float64
	NumElems    int
	MinFreqFrac float64
}

// Regime bucketing: the paper sweeps extent over {0.01%, 0.1%, 1%,
// 10%}, |q.d| over {1..5}, and element frequency over four bins; the
// router folds those into a 4 x 3 x 3 grid — coarse enough that every
// bucket accumulates observations quickly, fine enough to separate the
// regimes where different methods win.
const (
	numExtentBuckets = 4
	numElemsBuckets  = 3
	numFreqBuckets   = 3

	// NumBuckets is the size of the regime grid.
	NumBuckets = numExtentBuckets * numElemsBuckets * numFreqBuckets
)

func extentBucket(f float64) int {
	switch {
	case f <= 0.001:
		return 0
	case f <= 0.01:
		return 1
	case f <= 0.1:
		return 2
	default:
		return 3
	}
}

func elemsBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 3:
		return 1
	default:
		return 2
	}
}

func freqBucket(f float64) int {
	switch {
	case f < 0.001:
		return 0
	case f < 0.01:
		return 1
	default:
		return 2
	}
}

// BucketOf maps query features onto the regime grid.
func BucketOf(f Features) int {
	return (extentBucket(f.ExtentFrac)*numElemsBuckets+
		elemsBucket(f.NumElems))*numFreqBuckets + freqBucket(f.MinFreqFrac)
}

// PriorCost seeds the cost model from the paper's regime findings
// (Section 5.3-5.5), in nanoseconds per query at the default benchmark
// scale. The absolute values only set the starting order within each
// bucket; online EWMA updates converge the table onto the deployment's
// real costs.
//
// The encoded regime knowledge: irHINT-perf is the overall winner;
// plain tIF wins when the rarest element is very infrequent (its
// postings lists are tiny, so Algorithm 1's merges beat any hierarchy
// overhead); slicing-based methods degrade as the extent grows (more
// slices touched, more replicas); the merge/hybrid tIF+HINT variants
// take over on large extents where candidate sets are dense.
func PriorCost(cl Class, eb, nb, fb int) float64 {
	// Base per-query cost from the measured single-thread trajectory.
	// ClassSharding, ClassBinary and ClassSize keep the ratio to ClassPerf
	// of their median query on the benchmark's lib_methods list (44.9,
	// 22.4 and 20.1 µs against irHINT-perf's 12.25, with candidate
	// membership a bit test).
	base := [NumClasses]float64{
		ClassTIF:      28e3,
		ClassSlicing:  30e3,
		ClassSharding: 66e3,
		ClassBinary:   33e3,
		ClassMerge:    36e3,
		ClassHybrid:   29e3,
		ClassPerf:     18e3,
		ClassSize:     30e3,
	}
	c := base[cl]
	// Large extents punish sliced/temporal-scan structures and favor
	// the merge/hybrid intersections over dense candidate sets.
	extent := float64(eb) // 0..3
	switch cl {
	case ClassSlicing:
		c *= 1 + 1.5*extent
	case ClassTIF, ClassSharding:
		c *= 1 + 0.8*extent
	case ClassBinary, ClassSize:
		c *= 1 + 0.5*extent
	case ClassMerge, ClassHybrid:
		c *= 1 + 0.2*extent
	case ClassPerf:
		c *= 1 + 0.4*extent
	}
	// Rare elements shrink postings lists: the flat tIF merge (and the
	// binary probe) get disproportionately cheap, per the frequency
	// sweep's crossover.
	if fb == 0 {
		switch cl {
		case ClassTIF:
			c *= 0.25
		case ClassBinary:
			c *= 0.5
		}
	}
	// Long conjunctions multiply per-element passes; hierarchy-backed
	// methods amortize them better than flat lists.
	if nb == 2 {
		switch cl {
		case ClassTIF, ClassSharding:
			c *= 1.5
		case ClassSlicing:
			c *= 1.3
		}
	}
	return c
}

// exploreEvery is the deterministic exploration period: every Nth
// decision in a bucket round-robins across the registered methods
// instead of exploiting the current argmin, so cost estimates of
// non-winning methods never go stale and no method starves forever.
// Deterministic (a per-bucket counter, no randomness) so routed results
// and tests stay reproducible.
const exploreEvery = 16

// ewmaAlpha is the online update weight: new observations move the
// estimate 20% of the way, smoothing scheduler noise while tracking
// workload drift within tens of queries.
const ewmaAlpha = 0.2

// Router is the adaptive cost model: one EWMA cost estimate per
// (regime bucket, method), refined online and consulted per query. All
// state is atomic — concurrent Choose/Observe calls need no locks.
type Router struct {
	names   []string
	cost    []atomic.Uint64 // [bucket*n + method] EWMA ns, float64 bits
	decided []atomic.Uint64 // per-method decision counts
	probe   []atomic.Uint64 // per-bucket decision counters (exploration clock)
}

// New builds a router over the named methods, seeding every bucket's
// cost estimates from the class priors. names and classes are parallel;
// only methods with a live build may be registered — Choose never
// returns an index outside [0, len(names)).
func New(names []string, classes []Class) *Router {
	n := len(names)
	r := &Router{
		names:   append([]string(nil), names...),
		cost:    make([]atomic.Uint64, NumBuckets*n),
		decided: make([]atomic.Uint64, n),
		probe:   make([]atomic.Uint64, NumBuckets),
	}
	for eb := 0; eb < numExtentBuckets; eb++ {
		for nb := 0; nb < numElemsBuckets; nb++ {
			for fb := 0; fb < numFreqBuckets; fb++ {
				b := (eb*numElemsBuckets+nb)*numFreqBuckets + fb
				for i, cl := range classes {
					r.cost[b*n+i].Store(math.Float64bits(PriorCost(cl, eb, nb, fb)))
				}
			}
		}
	}
	return r
}

// Methods returns the registered method names in decision-index order.
func (r *Router) Methods() []string { return append([]string(nil), r.names...) }

// Choose picks the method index for a query with the given features:
// the per-bucket argmin of the cost estimates, except that every
// exploreEvery-th decision in the bucket round-robins deterministically
// so estimates stay fresh. The returned index is always a registered
// method.
func (r *Router) Choose(f Features) int {
	n := len(r.names)
	if n == 1 {
		r.decided[0].Add(1)
		return 0
	}
	b := BucketOf(f)
	k := r.probe[b].Add(1)
	if k%exploreEvery == 0 {
		mi := int(k/exploreEvery) % n
		r.decided[mi].Add(1)
		return mi
	}
	base := b * n
	best, bestCost := 0, math.Float64frombits(r.cost[base].Load())
	for i := 1; i < n; i++ {
		if c := math.Float64frombits(r.cost[base+i].Load()); c < bestCost {
			best, bestCost = i, c
		}
	}
	r.decided[best].Add(1)
	return best
}

// Observe folds one measured query duration into the (bucket, method)
// cost estimate. A lost CAS race drops the sample — the estimate is a
// smoothed approximation, not an accounting ledger.
func (r *Router) Observe(mi int, f Features, d time.Duration) {
	if mi < 0 || mi >= len(r.names) {
		return
	}
	slot := &r.cost[BucketOf(f)*len(r.names)+mi]
	old := slot.Load()
	next := math.Float64frombits(old) + ewmaAlpha*(float64(d.Nanoseconds())-math.Float64frombits(old))
	slot.CompareAndSwap(old, math.Float64bits(next))
}

// Cost returns the current estimate for (bucket, method) — test and
// introspection surface, not the hot path.
func (r *Router) Cost(bucket, mi int) float64 {
	return math.Float64frombits(r.cost[bucket*len(r.names)+mi].Load())
}

// Decisions returns how many queries were routed to method mi.
func (r *Router) Decisions(mi int) uint64 {
	if mi < 0 || mi >= len(r.decided) {
		return 0
	}
	return r.decided[mi].Load()
}

// DecisionTotal returns the total routed decision count.
func (r *Router) DecisionTotal() uint64 {
	var total uint64
	for i := range r.decided {
		total += r.decided[i].Load()
	}
	return total
}
