// Package server exposes temporalir engines over HTTP/JSON — the
// "search interface to multiple users simultaneously" deployment the
// paper's throughput metric models (public archives, footnote 11).
// Reads run concurrently against immutable generation snapshots and
// never wait on writers; POST /admin/compact (or the engine's
// auto-compaction policy) folds accumulated inserts and deletes into a
// freshly rebuilt index off the read path.
//
// The server is multi-tenant: every request resolves a tenant (the
// X-Scope-OrgID header, or a configurable default for single-tenant
// deployments) to its own engine in a tenant.Registry — created
// lazily, evicted to a spill file when cold, reloaded transparently.
// One tenant.Admission admits each query request, checking in order:
//
//  1. the tenant's own limits (in-flight cap, token-bucket rate) — a
//     429 with Retry-After, counted in tir_tenant_rejected_total;
//  2. the node's capacity — a 503, the node itself is saturated;
//  3. weighted fair share — a 429: the node has room but this tenant
//     is over its fraction of it, so siblings keep their latency.
//
// Every tenant engine is a *temporalir.Engine over the seed's store
// layout, answered through its context-aware searches, so /stats and
// the tir_shard_* metrics carry one row per store at every width — one
// for a single-store deployment.
//
// The server is also the integration point of the observability layer
// (internal/obs): per-method counters and latency histograms globally
// and per tenant (under a bounded label budget — see the series limit),
// traces carried through the engine's stages with tenant attribution in
// the slow-query log, and GET /metrics in the Prometheus text format.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	temporalir "repro"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/textutil"
)

// Options tunes the server's admission control, tenancy and
// observability.
type Options struct {
	// QueryTimeout bounds each search request's evaluation; expired
	// requests answer 504. Zero selects DefaultQueryTimeout; negative
	// disables the timeout.
	QueryTimeout time.Duration
	// MaxInFlight caps concurrently evaluating search requests across
	// all tenants, and is the capacity fair shares divide. Excess
	// requests are rejected immediately with 503 and a Retry-After hint
	// — backpressure instead of a lock convoy. Zero or negative selects
	// 4 x GOMAXPROCS.
	MaxInFlight int
	// Obs supplies the metrics registry, tracer and slow-query log. nil
	// makes the server construct its own default Observer.
	Obs *obs.Observer

	// DefaultTenant is the tenant served to requests without an
	// identity header. Empty selects tenant.DefaultID, so existing
	// single-tenant clients keep working unchanged.
	DefaultTenant string
	// RequireTenant, when set, refuses requests without an identity
	// header with 401 instead of falling back to the default tenant.
	RequireTenant bool
	// MaxTenants caps resident tenants; at the cap a cold tenant is
	// evicted (SpillDir set) or new tenants are rejected with 429.
	// Zero means unlimited.
	MaxTenants int
	// SpillDir is where evicted tenants are saved and reloaded from.
	// Empty disables eviction.
	SpillDir string
	// TenantLimits resolves a tenant's limits at creation time; nil
	// means every tenant is unlimited with weight 1.
	TenantLimits func(id string) tenant.Limits
}

// DefaultQueryTimeout bounds search evaluation when Options.QueryTimeout
// is zero.
const DefaultQueryTimeout = 5 * time.Second

// DefaultTenantSeriesLimit bounds how many distinct tenants get
// dedicated per-tenant metric series; tenants beyond it are attributed
// to the aggregate "_other" series so scrape cardinality stays bounded
// no matter how many tenants appear.
const DefaultTenantSeriesLimit = 64

// otherTenant is the overflow label value for tenants past the series
// budget, and for rejections of tenants that were never admitted.
const otherTenant = "_other"

// queryMetrics is the per-method handle pair the handlers record into.
type queryMetrics struct {
	count   *obs.Counter
	seconds *obs.Histogram
}

// tenantMetrics is one tenant's pre-resolved metric handles. It is
// attached as the registry tag under the registry lock at tenant
// creation and read-only afterwards; re-creating a tenant after an
// eviction resolves the same series again, so counts survive the
// engine's lifecycle.
type tenantMetrics struct {
	search   queryMetrics
	topk     queryMetrics
	batch    queryMetrics
	timeline queryMetrics
	// rejected is keyed by the fixed tenant.Reasons set — bounded
	// cardinality by construction.
	rejected map[string]*obs.Counter
}

func (tm *tenantMetrics) reject(reason string) {
	if c := tm.rejected[reason]; c != nil {
		c.Inc()
	}
}

// Server is an http.Handler serving a registry of tenant engines.
//
// It holds no lock around query evaluation: engine reads resolve one
// immutable generation snapshot and run entirely against it, and
// engine writes serialize internally on the store's writer mutex.
type Server struct {
	reg *tenant.Registry[Engine]
	mux *http.ServeMux
	obs *obs.Observer
	// queryTimeout and the tenancy settings are immutable after
	// construction.
	queryTimeout time.Duration
	// adm admits query requests; a slot is held for the whole
	// evaluation of one.
	adm           *tenant.Admission
	defaultTenant string
	requireTenant bool
	// spillEnabled records whether evictions can free registry slots,
	// which is what makes a short registry-full retry hint honest.
	spillEnabled bool

	// seed is the engine the server was constructed around; it defines
	// the method, options and store layout every tenant engine is built
	// with, and serves the default tenant.
	seed Engine
	// seedUsed makes the seed single-use in the registry New closure.
	seedUsed sync.Once

	// smu guards the per-tenant series budget.
	smu sync.Mutex
	// series maps tenant ids that own dedicated metric series.
	// Guarded by smu.
	series map[string]*tenantMetrics
	// otherMetrics absorbs the tenants past DefaultTenantSeriesLimit.
	otherMetrics *tenantMetrics
	// counters are the engine counters summed across tenants; fixed
	// once registerMetrics returns.
	counters []*engineCounter

	metSearch   queryMetrics
	metTopK     queryMetrics
	metBatch    queryMetrics
	metTimeline queryMetrics
	admAccepted *obs.Counter
	admRejected *obs.Counter
	admTimeout  *obs.Counter
	batchSize   *obs.Histogram
}

// engineCounter is one counter summed over tenant engines.
type engineCounter struct {
	read func(e Engine) float64
	// retired holds the float64 bits of what evicted engines counted.
	// Only onTenantEvict writes it, under the registry lock.
	retired atomic.Uint64
}

// New wraps an engine with default admission control and tenancy. The
// engine serves the default tenant and must not be mutated elsewhere
// while the server is live.
func New(engine Engine) *Server {
	return NewWithOptions(engine, Options{})
}

// NewWithOptions wraps an engine with explicit timeout, backpressure,
// tenancy and observability settings. The engine becomes the default
// tenant's engine; additional tenants get fresh engines with the same
// method and index options.
func NewWithOptions(engine Engine, opts Options) *Server {
	if opts.QueryTimeout == 0 {
		opts.QueryTimeout = DefaultQueryTimeout
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewObserver(obs.Config{})
	}
	if opts.DefaultTenant == "" {
		opts.DefaultTenant = tenant.DefaultID
	}
	s := &Server{
		mux:           http.NewServeMux(),
		obs:           opts.Obs,
		queryTimeout:  opts.QueryTimeout,
		adm:           tenant.NewAdmission(opts.MaxInFlight),
		defaultTenant: opts.DefaultTenant,
		requireTenant: opts.RequireTenant,
		spillEnabled:  opts.SpillDir != "",
		seed:          engine,
		series:        make(map[string]*tenantMetrics),
	}
	// Every tenant (and every spill reload) is a sibling of the seed:
	// same method, index options and resolved store layout. The snapshot
	// format does not depend on the store count, so spills load under
	// any layout if the deployment is ever reconfigured.
	method, idxOpts, so := engine.Method(), engine.IndexOptions(), engine.ShardOptions()
	newSibling := func() (Engine, error) { return temporalir.NewSharded(method, idxOpts, so) }
	loadSibling := func(r io.Reader) (Engine, error) { return temporalir.LoadSharded(r, method, idxOpts, so) }
	s.reg = tenant.NewRegistry(tenant.Config[Engine]{
		New: func(id string) (Engine, error) {
			// The seed engine serves the default tenant's first build;
			// everyone else (and any rebuild) gets a fresh engine.
			var seeded Engine
			if id == s.defaultTenant {
				s.seedUsed.Do(func() { seeded = s.seed })
			}
			if seeded != nil {
				return seeded, nil
			}
			return newSibling()
		},
		Load: func(id string, r io.Reader) (Engine, error) {
			return loadSibling(r)
		},
		MaxActive: opts.MaxTenants,
		SpillDir:  opts.SpillDir,
		Limits:    opts.TenantLimits,
		OnCreate:  s.onTenantCreate,
		OnEvict:   s.onTenantEvict,
	})
	s.registerMetrics()
	s.mux.HandleFunc("GET /search", s.handleSearch)
	s.mux.HandleFunc("POST /search/batch", s.handleSearchBatch)
	s.mux.HandleFunc("POST /objects", s.handleInsert)
	s.mux.HandleFunc("GET /objects/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /objects/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	s.mux.HandleFunc("POST /admin/compact", s.handleCompact)
	s.mux.HandleFunc("GET /admin/tenants", s.handleTenants)

	// Materialize the default tenant eagerly so the seeded engine is
	// resident from the first request (and from the first scrape).
	if tn, err := s.reg.Get(s.defaultTenant); err == nil {
		tn.Release()
	}
	return s
}

// Obs returns the server's observer, for callers (irserve, tests) that
// want to toggle tracing or read the registry directly.
func (s *Server) Obs() *obs.Observer { return s.obs }

// Registry returns the tenant registry, for callers (irserve's
// graceful drain, tests) that manage tenant lifecycles directly.
func (s *Server) Registry() *tenant.Registry[Engine] { return s.reg }

// onTenantCreate attaches the tenant's metric handles, within the
// series budget: the first DefaultTenantSeriesLimit distinct tenant ids get
// dedicated series (plus scrape-time engine gauges); later tenants
// share the "_other" aggregate. A tenant that is evicted and comes
// back keeps its budget slot and therefore its counters.
func (s *Server) onTenantCreate(tn *tenant.Tenant[Engine]) {
	id := tn.ID()
	s.smu.Lock()
	tm := s.series[id]
	if tm == nil && len(s.series) < DefaultTenantSeriesLimit {
		tm = s.newTenantMetrics(id, true)
		s.series[id] = tm
	}
	s.smu.Unlock()
	if tm == nil {
		tm = s.otherMetrics
	}
	tn.SetTag(tm)
}

// newTenantMetrics resolves one tenant's series handles. withGauges
// additionally registers the scrape-time engine-state gauges, which
// read through Registry.Peek so an evicted tenant scrapes as absent
// rather than through a stale engine pointer.
func (s *Server) newTenantMetrics(id string, withGauges bool) *tenantMetrics {
	reg := s.obs.Registry()
	tl := obs.Label{Key: "tenant", Value: id}
	method := func(m string) queryMetrics {
		return queryMetrics{
			count:   reg.Counter("tir_tenant_queries_total", "Queries served, by tenant and method.", tl, obs.Label{Key: "method", Value: m}),
			seconds: reg.Histogram("tir_tenant_query_seconds", "Query latency in seconds, by tenant and method.", obs.DefLatencyBuckets(), tl, obs.Label{Key: "method", Value: m}),
		}
	}
	tm := &tenantMetrics{
		search:   method("search"),
		topk:     method("search_topk"),
		batch:    method("search_batch"),
		timeline: method("timeline"),
		rejected: make(map[string]*obs.Counter, len(tenant.Reasons)),
	}
	for _, reason := range tenant.Reasons {
		tm.rejected[reason] = reg.Counter("tir_tenant_rejected_total", "Requests rejected by tenant limits, by tenant and reason.", tl, obs.Label{Key: "reason", Value: reason})
	}
	if withGauges {
		peek := func(read func(e Engine) float64) func() float64 {
			return func() float64 {
				tn, ok := s.reg.Peek(id)
				if !ok {
					return 0
				}
				return read(tn.Engine())
			}
		}
		reg.GaugeFunc("tir_tenant_objects", "Live objects, by tenant (0 while evicted).", peek(func(e Engine) float64 {
			return float64(e.Len())
		}), tl)
		reg.GaugeFunc("tir_tenant_size_bytes", "Estimated resident index size, by tenant.", peek(func(e Engine) float64 {
			return float64(e.SizeBytes())
		}), tl)
		reg.GaugeFunc("tir_tenant_memtable_objects", "Memtable objects, by tenant.", peek(func(e Engine) float64 {
			return float64(e.CompactStats().MemObjects)
		}), tl)
		reg.GaugeFunc("tir_tenant_tombstones", "Pending logical deletions, by tenant.", peek(func(e Engine) float64 {
			return float64(e.CompactStats().Tombstones)
		}), tl)
		reg.GaugeFunc("tir_tenant_inflight", "Queries currently admitted, by tenant.", func() float64 {
			return float64(s.adm.InFlight(id))
		}, tl)
	}
	return tm
}

// registerMetrics resolves every hot-path metric handle once, and wires
// the scrape-time engine gauges. Handles are plain pointers; recording
// into them takes no lock. Aggregate engine gauges keep their
// single-tenant names and sum over resident tenants, so existing
// dashboards keep working.
func (s *Server) registerMetrics() {
	reg := s.obs.Registry()
	method := func(m string) queryMetrics {
		return queryMetrics{
			count:   reg.Counter("tir_queries_total", "Queries served, by method.", obs.Label{Key: "method", Value: m}),
			seconds: reg.Histogram("tir_query_seconds", "Query latency in seconds, by method.", obs.DefLatencyBuckets(), obs.Label{Key: "method", Value: m}),
		}
	}
	s.metSearch = method("search")
	s.metTopK = method("search_topk")
	s.metBatch = method("search_batch")
	s.metTimeline = method("timeline")

	adm := func(res string) *obs.Counter {
		return reg.Counter("tir_admission_total", "Admission-control outcomes.", obs.Label{Key: "result", Value: res})
	}
	s.admAccepted = adm("accepted")
	s.admRejected = adm("rejected")
	s.admTimeout = adm("timeout")
	s.batchSize = reg.Histogram("tir_batch_queries", "Queries per batch request.", obs.DefSizeBuckets())
	reg.GaugeFunc("tir_inflight_queries", "Search requests currently holding an admission slot.", func() float64 {
		return float64(s.adm.InUse())
	})

	// The overflow tenant's series exist from startup so the rejection
	// counter family is present on the first scrape.
	s.otherMetrics = s.newTenantMetrics(otherTenant, false)

	reg.CounterFunc("tir_slow_queries_total", "Traces admitted to the slow-query log.", func() float64 {
		return float64(s.obs.Slow().Total())
	})

	// Engine-state metrics are sampled at scrape time: the underlying
	// stats are either atomic snapshots or taken under the store's own
	// short-lived locks, so scraping never touches the query path.
	// Gauges sum over resident tenants; counters also keep what evicted
	// engines counted, so they never go backwards.
	sum := func(read func(e Engine) float64) func() float64 {
		return func() float64 {
			var total float64
			s.reg.Each(func(tn *tenant.Tenant[Engine]) {
				total += read(tn.Engine())
			})
			return total
		}
	}
	counter := func(read func(e Engine) float64) func() float64 {
		c := &engineCounter{read: read}
		s.counters = append(s.counters, c)
		resident := sum(read)
		return func() float64 {
			// An eviction landing between the two reads would count its
			// engine twice or not at all; the eviction count shows
			// whether one did.
			for {
				n := s.reg.Evictions()
				total := math.Float64frombits(c.retired.Load()) + resident()
				if s.reg.Evictions() == n {
					return total
				}
			}
		}
	}
	reg.GaugeFunc("tir_engine_objects", "Live (non-tombstoned) objects across tenants.", sum(func(e Engine) float64 {
		return float64(e.Len())
	}))
	reg.GaugeFunc("tir_engine_size_bytes", "Estimated resident index size across tenants.", sum(func(e Engine) float64 {
		return float64(e.SizeBytes())
	}))
	reg.GaugeFunc("tir_memtable_objects", "Objects in memtable tails across tenants.", sum(func(e Engine) float64 {
		return float64(e.CompactStats().MemObjects)
	}))
	reg.GaugeFunc("tir_memtable_bytes", "Estimated memtable size across tenants.", sum(func(e Engine) float64 {
		return float64(e.CompactStats().MemBytes)
	}))
	reg.GaugeFunc("tir_tombstones", "Pending logical deletions across tenants.", sum(func(e Engine) float64 {
		return float64(e.CompactStats().Tombstones)
	}))
	reg.CounterFunc("tir_compactions_total", "Completed compactions across tenants.", counter(func(e Engine) float64 {
		return float64(e.CompactStats().Compactions)
	}))
	reg.CounterFunc("tir_compaction_seconds_total", "Wall time spent compacting.", counter(func(e Engine) float64 {
		return e.CompactStats().TotalDuration.Seconds()
	}))
	reg.CounterFunc("tir_compaction_dropped_total", "Tombstoned objects physically dropped by compaction.", counter(func(e Engine) float64 {
		return float64(e.CompactStats().TotalDropped)
	}))
	reg.CounterFunc("tir_compaction_merged_total", "Memtable objects folded into the base by compaction.", counter(func(e Engine) float64 {
		return float64(e.CompactStats().TotalMerged)
	}))
	reg.CounterFunc("tir_compaction_reclaimed_bytes_total", "Estimated bytes reclaimed by compaction.", counter(func(e Engine) float64 {
		return float64(e.CompactStats().ReclaimedBytes)
	}))

	// The worker pool is shared process-wide (engines fan out over the
	// same default pool), so its counters come from the seed engine
	// rather than a sum that would multiply-count the shared pool.
	reg.CounterFunc("tir_exec_maps_total", "Worker-pool fan-out invocations.", func() float64 {
		return float64(s.seed.PoolStats().Maps)
	})
	reg.CounterFunc("tir_exec_items_total", "Work items fanned across the pool.", func() float64 {
		return float64(s.seed.PoolStats().Items)
	})
	reg.CounterFunc("tir_exec_helpers_total", "Helper goroutines borrowed by fan-outs.", func() float64 {
		return float64(s.seed.PoolStats().Helpers)
	})

	// The coordinator and per-store state. The label space is the
	// seed's store count — fixed at construction, so scrape cardinality
	// is bounded; per-store gauges sum across tenants (every tenant
	// shares the seed's layout).
	reg.CounterFunc("tir_shard_queries_total", "Queries planned by the shard coordinator.", counter(func(e Engine) float64 {
		return float64(e.CoordinatorStats().Queries)
	}))
	reg.CounterFunc("tir_shard_pruned_total", "Shard evaluations skipped by extent pruning.", counter(func(e Engine) float64 {
		return float64(e.CoordinatorStats().ShardsPruned)
	}))
	for i := 0; i < s.seed.NumShards(); i++ {
		i := i
		shardOf := func(read func(st temporalir.ShardStat) float64) func(e Engine) float64 {
			return func(e Engine) float64 {
				if st := e.ShardStats(); i < len(st) {
					return read(st[i])
				}
				return 0
			}
		}
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		reg.GaugeFunc("tir_shard_objects", "Live objects, by shard.", sum(shardOf(func(st temporalir.ShardStat) float64 {
			return float64(st.Objects)
		})), lbl)
		reg.GaugeFunc("tir_shard_size_bytes", "Estimated resident size, by shard.", sum(shardOf(func(st temporalir.ShardStat) float64 {
			return float64(st.SizeBytes)
		})), lbl)
		reg.GaugeFunc("tir_shard_tombstones", "Pending logical deletions, by shard.", sum(shardOf(func(st temporalir.ShardStat) float64 {
			return float64(st.Tombstones)
		})), lbl)
		reg.CounterFunc("tir_shard_compactions_total", "Completed compactions, by shard.", counter(shardOf(func(st temporalir.ShardStat) float64 {
			return float64(st.Compactions)
		})), lbl)
	}

	// Tenancy lifecycle metrics.
	reg.GaugeFunc("tir_tenants", "Resident tenants.", func() float64 {
		return float64(s.reg.Len())
	})
	reg.CounterFunc("tir_tenant_evictions_total", "Tenants evicted from the registry.", func() float64 {
		return float64(s.reg.Evictions())
	})
	reg.CounterFunc("tir_tenant_spills_total", "Tenant spill snapshots written.", func() float64 {
		return float64(s.reg.Spills())
	})

	// Routed engines expose the adaptive router's decision tally, one
	// series per sub-method, summed across tenants (all tenants run the
	// same method). Non-routed engines register nothing.
	for i, m := range s.seed.RoutedMethods() {
		i := i
		reg.CounterFunc("tir_route_decisions_total", "Adaptive-router decisions, by chosen sub-method.", counter(func(e Engine) float64 {
			return float64(e.RouteDecisions()[i])
		}), obs.Label{Key: "method", Value: string(m)})
	}
}

// onTenantEvict folds the evicted engine's counts into the retired share
// of each engine counter. It runs under the registry lock, which orders
// its writes.
func (s *Server) onTenantEvict(tn *tenant.Tenant[Engine]) {
	for _, c := range s.counters {
		c.retired.Store(math.Float64bits(math.Float64frombits(c.retired.Load()) + c.read(tn.Engine())))
	}
}

// metricsOf returns the tenant's attached series handles.
func (s *Server) metricsOf(tn *tenant.Tenant[Engine]) *tenantMetrics {
	if tm, ok := tn.Tag().(*tenantMetrics); ok && tm != nil {
		return tm
	}
	return s.otherMetrics
}

// rejectedMetricsFor attributes a rejection for a tenant that may not
// be resident (e.g. the registry refused to admit it).
func (s *Server) rejectedMetricsFor(id string) *tenantMetrics {
	s.smu.Lock()
	tm := s.series[id]
	s.smu.Unlock()
	if tm == nil {
		return s.otherMetrics
	}
	return tm
}

// tenantID extracts the request's tenant identity: the X-Scope-OrgID
// header, or the configured default.
func (s *Server) tenantID(r *http.Request) (string, error) {
	id := r.Header.Get(tenant.Header)
	if id == "" {
		if s.requireTenant {
			return "", fmt.Errorf("missing %s header", tenant.Header)
		}
		return s.defaultTenant, nil
	}
	if err := tenant.ValidateID(id); err != nil {
		return "", err
	}
	return id, nil
}

// resolveTenant resolves and holds the request's tenant, writing the
// error response itself on failure. On success the caller must call
// Release on the returned tenant.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (*tenant.Tenant[Engine], bool) {
	id, err := s.tenantID(r)
	if err != nil {
		status := http.StatusBadRequest
		if s.requireTenant && r.Header.Get(tenant.Header) == "" {
			status = http.StatusUnauthorized
		}
		writeError(w, status, "%v", err)
		return nil, false
	}
	tn, err := s.reg.Get(id)
	if err != nil {
		if le := tenant.AsLimitError(err); le != nil {
			s.rejectedMetricsFor(id).reject(le.Reason)
			s.tooManyTenants(w, id)
			return nil, false
		}
		writeError(w, http.StatusInternalServerError, "tenant %s: %v", id, err)
		return nil, false
	}
	return tn, true
}

// grant is one admitted query request: the held tenant and its metric
// handles.
type grant struct {
	srv *Server
	tn  *tenant.Tenant[Engine]
	tm  *tenantMetrics
}

func (g grant) engine() Engine { return g.tn.Engine() }

func (g grant) release() {
	g.srv.adm.Release(g.tn.ID())
	g.tn.Release()
}

// admitQuery resolves the request's tenant and admits one query for it,
// writing the rejection response itself: 429 for the tenant's own caps
// or its fair share, 503 when the node is full (tenant.Admission holds
// the order of the checks).
func (s *Server) admitQuery(w http.ResponseWriter, r *http.Request) (grant, bool) {
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return grant{}, false
	}
	g := grant{srv: s, tn: tn, tm: s.metricsOf(tn)}
	err := s.adm.Acquire(tn.ID(), tn.Limits(), time.Now())
	if err == nil {
		s.admAccepted.Inc()
		return g, true
	}
	tn.Release()
	if le := tenant.AsLimitError(err); le != nil {
		g.tm.reject(le.Reason)
		tooMany(w, le)
	} else {
		s.admRejected.Inc()
		s.overloaded(w)
	}
	return grant{}, false
}

// Retry hints. The Retry-After header stays a whole-second ceiling
// (never below 1 — HTTP clients treat the value as seconds and many
// floor fractional parsing to zero, i.e. hammer immediately), while the
// JSON body carries the real, load-derived wait in retry_after_ms so
// programmatic clients can back off proportionally instead of
// sleeping a full second against a node that drains in milliseconds.
const (
	minRetryHint = 25 * time.Millisecond
	maxRetryHint = time.Second
)

// clampRetryHint bounds a derived hint to [minRetryHint, maxRetryHint].
func clampRetryHint(d time.Duration) time.Duration {
	if d < minRetryHint {
		return minRetryHint
	}
	if d > maxRetryHint {
		return maxRetryHint
	}
	return d
}

// retryHeaderSecs renders a hint as the whole-second Retry-After value.
func retryHeaderSecs(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeRetryError answers a rejection with both hint forms.
func writeRetryError(w http.ResponseWriter, status int, retry time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", retryHeaderSecs(retry))
	send(w, status, errorReply{msg: fmt.Sprintf(format, args...), retryMS: retry.Milliseconds()})
}

// overloadRetryHint derives the 503 hint from in-flight pressure: the
// node is full with Capacity() queries in service, each bounded by the
// query timeout, so the expected time until a slot frees is about one
// per-query budget divided by the number of slots draining in parallel.
// A wide node on an idle-ish machine hints a few tens of milliseconds; a
// narrow one under a long timeout hints closer to the full second.
func (s *Server) overloadRetryHint() time.Duration {
	budget := s.queryTimeout
	if budget <= 0 {
		budget = DefaultQueryTimeout
	}
	return clampRetryHint(budget / time.Duration(s.adm.Capacity()))
}

// overloaded answers a request rejected by the node's capacity.
func (s *Server) overloaded(w http.ResponseWriter) {
	writeRetryError(w, http.StatusServiceUnavailable, s.overloadRetryHint(),
		"server overloaded; retry shortly")
}

// tooMany answers a request rejected by a per-tenant limit: 429 with
// the limiter's own wait when it has one (the token-bucket refill time,
// millisecond precision in the body), or the structural-limit hint —
// these clear when the tenant's own usage drops, which the tenant
// controls, so the floor is the minimum hint rather than a full second.
func tooMany(w http.ResponseWriter, le *tenant.LimitError) {
	retry := le.RetryAfter
	if retry <= 0 {
		retry = minRetryHint
	}
	writeRetryError(w, http.StatusTooManyRequests, clampRetryHint(retry), "%v", le)
}

// tooManyTenants answers a request whose tenant could not be admitted
// to the registry at all. With a spill directory the slot frees as soon
// as a cold tenant is evicted — a short hint; without one, residency
// only shrinks when some tenant is torn down, so the hint is the cap.
func (s *Server) tooManyTenants(w http.ResponseWriter, id string) {
	retry := maxRetryHint
	if s.spillEnabled {
		retry = 4 * minRetryHint
	}
	writeRetryError(w, http.StatusTooManyRequests, retry, "tenant %s: registry full; retry shortly", id)
}

// queryCtx derives the per-request evaluation context, carrying the
// evaluation deadline.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.queryTimeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.queryTimeout)
}

// failed answers a query that has no result to stand behind — the
// request's deadline fired (504) or its context was cancelled (500) —
// and reports whether it did. Otherwise the caller writes the 200, which
// always carries every planned store's contribution.
func (s *Server) failed(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.admTimeout.Inc()
		writeError(w, http.StatusGatewayTimeout, "query timed out")
	case err != nil:
		writeError(w, http.StatusInternalServerError, "query aborted: %v", err)
	default:
		return false
	}
	return true
}

// finishQuery records one served query twice — into the global
// per-method family and the tenant's own — and offers the finished
// trace to the slow log.
func (s *Server) finishQuery(m, tm queryMetrics, tr *obs.Trace, t0 time.Time) {
	sec := time.Since(t0).Seconds()
	m.count.Inc()
	m.seconds.Observe(sec)
	tm.count.Inc()
	tm.seconds.Observe(sec)
	s.obs.FinishTrace(tr)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// objectJSON is the wire form of an object.
type objectJSON struct {
	ID    temporalir.ObjectID  `json:"id"`
	Start temporalir.Timestamp `json:"start"`
	End   temporalir.Timestamp `json:"end"`
	Terms []string             `json:"terms"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	send(w, status, errorReply{msg: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds a request body. Bodies are decoded before tenant
// resolution and admission, so without a bound one client could make
// the server decode and hold any amount of memory; real bodies are a
// few hundred bytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers 413 for an oversized body and 400 for any other
// error, and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxBodyBytes)
	default:
		writeError(w, http.StatusBadRequest, "bad body: %v", err)
	}
	return false
}

// checkInterval validates a request's interval. start > end is rejected
// — by every endpoint alike — instead of being silently canonicalized,
// and so is an interval of more than 2^63−1 time points: its length does
// not fit the int64 the engine measures durations in.
func checkInterval(start, end temporalir.Timestamp) error {
	if start > end {
		return fmt.Errorf("start %d > end %d", start, end)
	}
	if uint64(end)-uint64(start) >= math.MaxInt64 {
		return fmt.Errorf("interval [%d, %d] spans more than 2^63-1 time points", start, end)
	}
	return nil
}

// parseQueryRange extracts and validates start, end and q from the
// parsed query string of a search or timeline request, writing the 400
// response itself on failure.
func parseQueryRange(w http.ResponseWriter, query url.Values) (start, end temporalir.Timestamp, terms []string, ok bool) {
	start, err := parseTS(query.Get("start"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad start: %v", err)
		return 0, 0, nil, false
	}
	end, err = parseTS(query.Get("end"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad end: %v", err)
		return 0, 0, nil, false
	}
	if err := checkInterval(start, end); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return 0, 0, nil, false
	}
	terms = textutil.Tokenize(query.Get("q"))
	if len(terms) == 0 {
		writeError(w, http.StatusBadRequest, "q must contain at least one indexable term")
		return 0, 0, nil, false
	}
	return start, end, terms, true
}

// handleSearch answers GET /search?start=S&end=E&q=TERMS[&k=K].
// q is free text, tokenized and normalized like inserted documents.
// Without k the full containment result is returned; with k the top-k
// ranked results with scores. Either answers 504 past the deadline.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	start, end, terms, ok := parseQueryRange(w, query)
	if !ok {
		return
	}
	var k int
	if kRaw := query.Get("k"); kRaw != "" {
		var err error
		k, err = strconv.Atoi(kRaw)
		if err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, "bad k: %q", kRaw)
			return
		}
	}

	g, ok := s.admitQuery(w, r)
	if !ok {
		return
	}
	defer g.release()
	ctx, cancel := s.queryCtx(r)
	defer cancel()

	if k > 0 {
		tr := s.obs.StartTrace("search_topk")
		tr.SetTenant(g.tn.ID())
		tr.SetShape("terms=%d k=%d", len(terms), k)
		t0 := time.Now()
		res, err := g.engine().SearchTopKCtx(obs.ContextWithTrace(ctx, tr), start, end, k, terms...)
		s.finishQuery(s.metTopK, g.tm.topk, tr, t0)
		if !s.failed(w, err) {
			send(w, http.StatusOK, topKReply{hits: res})
		}
		return
	}
	tr := s.obs.StartTrace("search")
	tr.SetTenant(g.tn.ID())
	tr.SetShape("terms=%d", len(terms))
	t0 := time.Now()
	ids, err := g.engine().SearchCtx(obs.ContextWithTrace(ctx, tr), start, end, terms...)
	s.finishQuery(s.metSearch, g.tm.search, tr, t0)
	if !s.failed(w, err) {
		send(w, http.StatusOK, idsReply{ids: ids})
	}
}

// batchRequest is the wire form of POST /search/batch: one interval of
// interest and many free-text term rows, evaluated concurrently over the
// engine's worker pool.
type batchRequest struct {
	Start   temporalir.Timestamp `json:"start"`
	End     temporalir.Timestamp `json:"end"`
	Queries []string             `json:"queries"`
}

// handleSearchBatch answers POST /search/batch. The whole batch holds
// one admission grant (one slot, one rate-limit token) and one
// evaluation deadline; rows cut off by the deadline report a per-row
// error while completed rows still return.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkInterval(req.Start, req.End); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "queries must not be empty")
		return
	}
	termRows := make([][]string, len(req.Queries))
	for i, q := range req.Queries {
		termRows[i] = textutil.Tokenize(q)
		if len(termRows[i]) == 0 {
			writeError(w, http.StatusBadRequest, "query %d has no indexable terms", i)
			return
		}
	}
	g, ok := s.admitQuery(w, r)
	if !ok {
		return
	}
	defer g.release()
	ctx, cancel := s.queryCtx(r)
	defer cancel()

	tr := s.obs.StartTrace("search_batch")
	tr.SetTenant(g.tn.ID())
	tr.SetShape("queries=%d", len(termRows))
	s.batchSize.Observe(float64(len(termRows)))
	t0 := time.Now()
	results := g.engine().SearchTermsBatchCtx(obs.ContextWithTrace(ctx, tr), req.Start, req.End, termRows)
	s.finishQuery(s.metBatch, g.tm.batch, tr, t0)
	timedOut, completed := false, 0
	for _, res := range results {
		if res.Err == nil {
			completed++
		} else if errors.Is(res.Err, context.DeadlineExceeded) {
			timedOut = true
		}
	}
	if timedOut {
		s.admTimeout.Inc()
	}
	// A batch where not a single row completed has nothing to stand
	// behind: that is the whole request dying to its deadline, and it
	// answers like one — 504, not a 200 full of error rows.
	if completed == 0 && timedOut {
		writeError(w, http.StatusGatewayTimeout, "no batch row completed before the deadline")
		return
	}
	send(w, http.StatusOK, batchReply{rows: results, partial: completed < len(results)})
}

// handleInsert answers POST /objects with an objectJSON body (id
// ignored). Inserts are not rate-limited, but they are the enforcement
// point of the tenant's memtable and size quotas: an over-quota tenant
// gets 429 until compaction (or deletion) makes room, while sibling
// tenants are untouched.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var in objectJSON
	if !decodeBody(w, r, &in) {
		return
	}
	if err := checkInterval(in.Start, in.End); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var terms []string
	for _, t := range in.Terms {
		terms = append(terms, textutil.Tokenize(t)...)
	}
	if len(terms) == 0 {
		writeError(w, http.StatusBadRequest, "no indexable terms")
		return
	}
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	defer tn.Release()
	eng := tn.Engine()
	if err := tn.Limits().CheckIngest(tn.ID(), eng.CompactStats().MemObjects, eng.SizeBytes()); err != nil {
		le := tenant.AsLimitError(err)
		s.metricsOf(tn).reject(le.Reason)
		tooMany(w, le)
		return
	}
	// No server-level lock: Insert serializes on the engine's dictionary
	// and store mutexes.
	id := eng.Insert(in.Start, in.End, terms...)
	send(w, http.StatusCreated, idReply{key: "id", id: id})
}

// handleGet answers GET /objects/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	defer tn.Release()
	iv, terms, err := tn.Engine().Object(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, objectJSON{ID: id, Start: iv.Start, End: iv.End, Terms: terms})
}

// handleDelete answers DELETE /objects/{id}.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	defer tn.Release()
	if err := tn.Engine().Delete(id); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	send(w, http.StatusOK, idReply{key: "deleted", id: id})
}

// handleTimeline answers GET /timeline?start=S&end=E&q=TERMS&buckets=N:
// a temporal histogram of the matching objects. Timelines scan every
// match, so the endpoint sits behind the same admission control and
// deadline as /search.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	start, end, terms, ok := parseQueryRange(w, query)
	if !ok {
		return
	}
	buckets := 10
	if raw := query.Get("buckets"); raw != "" {
		var err error
		buckets, err = strconv.Atoi(raw)
		if err != nil || buckets < 1 || buckets > 10000 {
			writeError(w, http.StatusBadRequest, "bad buckets: %q", raw)
			return
		}
	}
	g, ok := s.admitQuery(w, r)
	if !ok {
		return
	}
	defer g.release()
	ctx, cancel := s.queryCtx(r)
	defer cancel()

	tr := s.obs.StartTrace("timeline")
	tr.SetTenant(g.tn.ID())
	tr.SetShape("terms=%d buckets=%d", len(terms), buckets)
	t0 := time.Now()
	tl, err := g.engine().TimelineCtx(obs.ContextWithTrace(ctx, tr), start, end, buckets, terms...)
	s.finishQuery(s.metTimeline, g.tm.timeline, tr, t0)
	if !s.failed(w, err) {
		send(w, http.StatusOK, timelineReply{buckets: tl})
	}
}

// statsReply is GET /stats, fields in the key order of the old map.
type statsReply struct {
	Compaction  temporalir.CompactionStats  `json:"compaction"`
	Coordinator temporalir.CoordinatorStats `json:"coordinator"`
	FairShare   int                         `json:"fair_share"`
	InFlight    int                         `json:"inflight"`
	Limits      tenant.Limits               `json:"limits"`
	Method      string                      `json:"method"`
	Objects     int                         `json:"objects"`
	Pool        exec.PoolStats              `json:"pool"`
	Shards      []temporalir.ShardStat      `json:"shards"`
	SizeBytes   int64                       `json:"size_bytes"`
	Tenant      string                      `json:"tenant"`
	Tenants     int                         `json:"tenants"`
}

// handleStats answers GET /stats for the request's tenant, including
// the generational compaction state and the tenant's admission view
// (limits, in-flight, current fair share).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	defer tn.Release()
	eng := tn.Engine()
	out := statsReply{
		Compaction:  eng.CompactStats(),
		Coordinator: eng.CoordinatorStats(),
		FairShare:   s.adm.Share(tn.ID(), tn.Limits().EffectiveWeight(), time.Now()),
		InFlight:    s.adm.InFlight(tn.ID()),
		Limits:      tn.Limits(),
		Method:      string(eng.Method()),
		Objects:     eng.Len(),
		Pool:        eng.PoolStats(),
		Shards:      eng.ShardStats(),
		SizeBytes:   eng.SizeBytes(),
		Tenant:      tn.ID(),
		Tenants:     s.reg.Len(),
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTenants answers GET /admin/tenants: the resident tenant set
// with per-tenant engine and admission state.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID         string `json:"id"`
		Objects    int    `json:"objects"`
		SizeBytes  int64  `json:"size_bytes"`
		MemObjects int    `json:"memtable_objects"`
		Tombstones int    `json:"tombstones"`
		InFlight   int    `json:"inflight"`
		Weight     int    `json:"weight"`
	}
	var rows []row
	s.reg.Each(func(tn *tenant.Tenant[Engine]) {
		eng := tn.Engine()
		st := eng.CompactStats()
		rows = append(rows, row{
			ID:         tn.ID(),
			Objects:    eng.Len(),
			SizeBytes:  eng.SizeBytes(),
			MemObjects: st.MemObjects,
			Tombstones: st.Tombstones,
			InFlight:   s.adm.InFlight(tn.ID()),
			Weight:     tn.Limits().EffectiveWeight(),
		})
	})
	writeJSON(w, http.StatusOK, struct {
		Evictions uint64 `json:"evictions"`
		Resident  int    `json:"resident"`
		Spills    uint64 `json:"spills"`
		Tenants   []row  `json:"tenants"`
	}{s.reg.Evictions(), s.reg.Len(), s.reg.Spills(), rows})
}

// handleMetrics answers GET /metrics in the Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.Registry().WritePrometheus(w)
}

// handleSlow answers GET /debug/slow: the slow-query ring, newest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	slow := s.obs.Slow()
	writeJSON(w, http.StatusOK, struct {
		Entries     []obs.Summary `json:"entries"`
		ThresholdNS int64         `json:"threshold_ns"`
		Total       uint64        `json:"total"`
	}{slow.Snapshot(), slow.Threshold().Nanoseconds(), slow.Total()})
}

// handleCompact answers POST /admin/compact: it runs a synchronous
// compaction of the request tenant's engine and returns the resulting
// stats. A compaction already in flight answers 409 with the current
// stats; the request context bounds the rebuild (a canceled request
// leaves the old generation intact). Searches keep running against the
// previous generation throughout, so the endpoint never degrades read
// availability.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	defer tn.Release()
	tr := s.obs.StartTrace("compact")
	tr.SetTenant(tn.ID())
	st, err := tn.Engine().Compact(obs.ContextWithTrace(r.Context(), tr))
	s.obs.FinishTrace(tr)
	type compacted struct {
		Compaction temporalir.CompactionStats `json:"compaction"`
		Error      string                     `json:"error,omitempty"`
	}
	switch {
	case errors.Is(err, temporalir.ErrCompactionRunning):
		writeJSON(w, http.StatusConflict, compacted{st, "compaction already in progress"})
	case err != nil:
		writeError(w, http.StatusInternalServerError, "compaction failed: %v", err)
	default:
		writeJSON(w, http.StatusOK, compacted{Compaction: st})
	}
}

func parseTS(raw string) (temporalir.Timestamp, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing")
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not an integer timestamp: %q", raw)
	}
	return v, nil
}

func parseID(raw string) (temporalir.ObjectID, error) {
	raw = strings.TrimSpace(raw)
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad object id %q", raw)
	}
	return temporalir.ObjectID(v), nil
}
