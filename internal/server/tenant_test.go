package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
)

func tenantGet(t *testing.T, url, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != "" {
		req.Header.Set(tenant.Header, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func tenantPost(t *testing.T, url, id, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(tenant.Header, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTenantHeaderIsolation checks the core tenancy contract over HTTP:
// each X-Scope-OrgID resolves to its own engine, writes to one tenant
// are invisible to every other, and headerless requests keep hitting
// the default tenant (the seeded engine) exactly as before tenancy.
func TestTenantHeaderIsolation(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The seeded engine serves headerless requests.
	resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"count":2`) {
		t.Fatalf("default search: status %d body %s", resp.StatusCode, body)
	}

	// Tenant "acme" starts empty: no hits against the seed's data.
	resp = tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "acme")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"count":0`) {
		t.Fatalf("fresh tenant search: status %d body %s", resp.StatusCode, body)
	}

	// A write to "acme" is visible to "acme" and to no one else.
	resp = tenantPost(t, ts.URL+"/objects", "acme", `{"start":10,"end":20,"terms":["secret"]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant insert: status %d", resp.StatusCode)
	}
	resp = tenantGet(t, ts.URL+"/search?start=0&end=100&q=secret", "acme")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"count":1`) {
		t.Fatalf("tenant sees own write: body %s", body)
	}
	for _, other := range []string{"", "globex"} {
		resp = tenantGet(t, ts.URL+"/search?start=0&end=100&q=secret", other)
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), `"count":0`) {
			t.Fatalf("tenant %q sees acme's write: body %s", other, body)
		}
	}

	// Object ids are tenant-scoped too: acme's object 0 is not the
	// default tenant's object 0.
	resp = tenantGet(t, ts.URL+"/objects/0", "acme")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "secret") {
		t.Fatalf("acme object 0: %s", body)
	}
	resp = tenantGet(t, ts.URL+"/objects/0", "")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "secret") {
		t.Fatalf("default object 0 leaked acme data: %s", body)
	}
}

// TestTenantIDValidation rejects malformed tenant ids before any
// engine work.
func TestTenantIDValidation(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, bad := range []string{"..", "a/b", strings.Repeat("x", 65), "sp ace"} {
		resp := tenantGet(t, ts.URL+"/stats", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("tenant id %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRequireTenant401 checks strict mode: with RequireTenant set,
// headerless requests are refused instead of falling back to the
// default tenant.
func TestRequireTenant401(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{RequireTenant: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("headerless search in strict mode: status %d, want 401", resp.StatusCode)
	}
	resp = tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "acme")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identified search in strict mode: status %d, want 200", resp.StatusCode)
	}
}

// TestTenantRateLimit429 is the QoS acceptance test: a tenant that
// exhausts its token bucket gets 429 with a Retry-After hint, its
// sibling keeps answering 200 throughout (no bleed), and the rejection
// shows up in /metrics under tir_tenant_rejected_total with the bounded
// reason label.
func TestTenantRateLimit429(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{
		TenantLimits: func(id string) tenant.Limits {
			if id == "throttled" {
				return tenant.Limits{QueriesPerSec: 0.001, Burst: 2}
			}
			return tenant.Limits{}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	url := ts.URL + "/search?start=0&end=100&q=alpha"
	for i := 0; i < 2; i++ {
		resp := tenantGet(t, url, "throttled")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst query %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	resp := tenantGet(t, url, "throttled")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate query: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive hint", ra)
	}
	if !strings.Contains(string(body), "rate") {
		t.Fatalf("429 body does not name the reason: %s", body)
	}

	// The sibling tenant is untouched by its neighbor's rejection.
	for i := 0; i < 5; i++ {
		resp := tenantGet(t, url, "polite")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sibling query %d: status %d, want 200", i, resp.StatusCode)
		}
	}

	// The rejection is attributed in /metrics, by tenant and reason.
	resp = tenantGet(t, ts.URL+"/metrics", "")
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE tir_tenant_rejected_total counter",
		`tir_tenant_rejected_total{reason="rate",tenant="throttled"} 1`,
		`tir_tenant_rejected_total{reason="rate",tenant="polite"} 0`,
		`tir_tenant_queries_total{method="search",tenant="polite"} 5`,
		`tir_tenant_queries_total{method="search",tenant="throttled"} 2`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenantInFlightCap429 checks the per-tenant concurrency cap: with
// the tenant's only slot held, its next query answers 429 while the
// node still has room for everyone else.
func TestTenantInFlightCap429(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{
		MaxInFlight: 8,
		TenantLimits: func(id string) tenant.Limits {
			if id == "narrow" {
				return tenant.Limits{MaxInFlight: 1}
			}
			return tenant.Limits{}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Hold the tenant's single slot directly through the registry.
	tn, err := srv.Registry().Get("narrow")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.adm.Acquire(tn.ID(), tn.Limits(), time.Now()); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/search?start=0&end=100&q=alpha"
	resp := tenantGet(t, url, "narrow")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capped tenant: status %d, want 429", resp.StatusCode)
	}
	resp = tenantGet(t, url, "wide")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling of capped tenant: status %d, want 200", resp.StatusCode)
	}
	srv.adm.Release(tn.ID())
	tn.Release()
	resp = tenantGet(t, url, "narrow")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after slot release: status %d, want 200", resp.StatusCode)
	}
}

// TestTenantIngestQuota429 checks the memtable quota: inserts past the
// tenant's budget answer 429 until compaction folds the memtable in,
// and the sibling's ingest is unaffected.
func TestTenantIngestQuota429(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{
		TenantLimits: func(id string) tenant.Limits {
			if id == "boxed" {
				return tenant.Limits{MaxMemObjects: 2}
			}
			return tenant.Limits{}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doc := func(i int) string {
		return fmt.Sprintf(`{"start":%d,"end":%d,"terms":["doc%d"]}`, i, i+1, i)
	}
	for i := 0; i < 2; i++ {
		resp := tenantPost(t, ts.URL+"/objects", "boxed", doc(i))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("insert %d under quota: status %d", i, resp.StatusCode)
		}
	}
	resp := tenantPost(t, ts.URL+"/objects", "boxed", doc(2))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("insert over quota: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "mem_quota") {
		t.Fatalf("429 body does not name mem_quota: %s", body)
	}

	// The sibling can still write.
	resp = tenantPost(t, ts.URL+"/objects", "roomy", doc(0))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sibling insert: status %d, want 201", resp.StatusCode)
	}

	// Compaction clears the memtable and re-opens the quota.
	resp = tenantPost(t, ts.URL+"/admin/compact", "boxed", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d", resp.StatusCode)
	}
	resp = tenantPost(t, ts.URL+"/objects", "boxed", doc(2))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert after compaction: status %d, want 201", resp.StatusCode)
	}

	resp = tenantGet(t, ts.URL+"/metrics", "")
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), `tir_tenant_rejected_total{reason="mem_quota",tenant="boxed"} 1`) {
		t.Error("/metrics missing the mem_quota rejection attribution")
	}
}

// TestTenantEvictReloadOverHTTP drives the registry's spill/reload
// through the HTTP surface: with room for two resident tenants, a third
// evicts the coldest; querying the evicted tenant again transparently
// reloads it with its data (including external ids) intact.
func TestTenantEvictReloadOverHTTP(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{
		MaxTenants: 2,
		SpillDir:   t.TempDir(),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := tenantPost(t, ts.URL+"/objects", "cold", `{"start":10,"end":20,"terms":["frozen"]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}

	// Touch two more tenants; capacity 2 forces evictions (the clock
	// needs a few rounds to clear second-chance bits).
	for _, id := range []string{"warm", "hot", "warm", "hot"} {
		resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=x", id)
		resp.Body.Close()
	}
	if srv.Registry().Evictions() == 0 {
		t.Fatal("no evictions at MaxTenants=2 with 4 tenants touched")
	}

	// The evicted tenant reloads transparently, data and ids intact.
	resp = tenantGet(t, ts.URL+"/search?start=0&end=100&q=frozen", "cold")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"count":1`) {
		t.Fatalf("reloaded search: status %d body %s", resp.StatusCode, body)
	}
	resp = tenantGet(t, ts.URL+"/objects/0", "cold")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "frozen") {
		t.Fatalf("reloaded object 0: %s", body)
	}

	resp = tenantGet(t, ts.URL+"/admin/tenants", "")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"evictions":`) || !strings.Contains(string(body), `"spills":`) {
		t.Fatalf("/admin/tenants missing lifecycle counters: %s", body)
	}
}

// TestTenantSeriesLimitOverflow keeps metric cardinality bounded: past
// the series budget, new tenants are attributed to the "_other"
// aggregate instead of minting fresh label values.
func TestTenantSeriesLimitOverflow(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// DefaultTenantSeriesLimit + 2 tenants: default (pre-warmed) and
	// "last" take the first and the final budget slot, the fillers the
	// rest; "over1" and "over2" overflow.
	ids := []string{}
	for i := 2; i < DefaultTenantSeriesLimit; i++ {
		ids = append(ids, fmt.Sprintf("filler%d", i))
	}
	for _, id := range append(ids, "last", "over1", "over2") {
		resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", id)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s: status %d", id, resp.StatusCode)
		}
	}
	resp := tenantGet(t, ts.URL+"/metrics", "")
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(page)
	if !strings.Contains(text, `tir_tenant_queries_total{method="search",tenant="last"} 1`) {
		t.Error("in-budget tenant lost its dedicated series")
	}
	if strings.Contains(text, `tenant="over1"`) || strings.Contains(text, `tenant="over2"`) {
		t.Error("over-budget tenant minted a dedicated series")
	}
	if !strings.Contains(text, `tir_tenant_queries_total{method="search",tenant="_other"} 2`) {
		t.Error("over-budget tenants not attributed to _other")
	}
}

// TestTenantSlowLogAttribution checks that slow-log entries carry the
// tenant id, so a slow query is attributable in a shared deployment.
func TestTenantSlowLogAttribution(t *testing.T) {
	observer := obs.NewObserver(obs.Config{SlowThreshold: -1}) // capture every trace
	srv := NewWithOptions(buildEngine(t), Options{Obs: observer})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "acme")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}
	resp = tenantGet(t, ts.URL+"/debug/slow", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"tenant":"acme"`) {
		t.Fatalf("/debug/slow entry missing tenant attribution: %s", body)
	}
}

// metricValue scrapes /metrics and returns the value of the unlabelled
// series name.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp := tenantGet(t, base+"/metrics", "")
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// TestCountersSurviveEviction checks that the engine counters summed
// across tenants never go backwards: evicting a tenant keeps what its
// engine counted, and reloading it does not count that again.
func TestCountersSurviveEviction(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{SpillDir: t.TempDir()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := tenantPost(t, ts.URL+"/objects", "acme", `{"start":10,"end":20,"terms":["alpha"]}`)
	resp.Body.Close()
	resp = tenantPost(t, ts.URL+"/admin/compact", "acme", "")
	resp.Body.Close()
	search := func() {
		t.Helper()
		resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "acme")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search: status %d", resp.StatusCode)
		}
	}
	search()
	counters := []string{"tir_compactions_total", "tir_compaction_merged_total", "tir_shard_queries_total", `tir_shard_compactions_total{shard="0"}`}
	before := make([]float64, len(counters))
	for i, name := range counters {
		if before[i] = metricValue(t, ts.URL, name); before[i] != 1 {
			t.Fatalf("%s = %v before eviction, want 1", name, before[i])
		}
	}
	if err := srv.Registry().Evict("acme"); err != nil {
		t.Fatal(err)
	}
	for i, name := range counters {
		if got := metricValue(t, ts.URL, name); got != before[i] {
			t.Errorf("%s = %v after eviction, want %v", name, got, before[i])
		}
	}
	search() // reloads acme from its spill
	want := []float64{1, 1, 2, 1}
	for i, name := range counters {
		if got := metricValue(t, ts.URL, name); got != want[i] {
			t.Errorf("%s = %v after reload and one more search, want %v", name, got, want[i])
		}
	}
}

// TestRateLimitSurvivesEviction checks that a tenant's token bucket
// belongs to its id, not its engine: evicting a throttled tenant must
// not hand it a fresh burst.
func TestRateLimitSurvivesEviction(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{
		TenantLimits: func(id string) tenant.Limits {
			return tenant.Limits{QueriesPerSec: 0.01, Burst: 1}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var codes []int
	for i := 0; i < 3; i++ {
		if i == 2 {
			if err := srv.Registry().Evict("rated"); err != nil {
				t.Fatal(err)
			}
		}
		resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "rated")
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if want := []int{http.StatusOK, http.StatusTooManyRequests, http.StatusTooManyRequests}; !slices.Equal(codes, want) {
		t.Fatalf("statuses %v, want %v", codes, want)
	}
}
