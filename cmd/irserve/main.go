// Command irserve runs the HTTP search service over a dataset: load a
// .tirc file (or start empty), build the chosen index and serve the JSON
// API of internal/server:
//
//	irserve -data archive.tirc -index irhint/perf -addr :8080
//
//	GET    /search?start=S&end=E&q=free+text[&k=K]
//	POST   /objects            {"start":S,"end":E,"terms":["..."]}
//	GET    /objects/{id}
//	DELETE /objects/{id}
//	GET    /stats
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/slow         slow-query log (JSON)
//	GET    /admin/tenants      resident tenants and lifecycle counters
//
// The service is multi-tenant: requests carrying an X-Scope-OrgID
// header are routed to that tenant's own engine (created lazily, built
// with the same -index method); requests without the header hit the
// -default-tenant, which serves the preloaded dataset. -max-tenants
// bounds resident tenants, with cold ones spilled to -tenant-spill and
// reloaded transparently; -tenant-limits points at a JSON file of
// per-tenant quotas, rates and fair-share weights:
//
//	{
//	  "*":      {"queries_per_sec": 100, "weight": 1},
//	  "gold":   {"queries_per_sec": 1000, "weight": 4},
//	  "trial":  {"queries_per_sec": 5, "max_mem_objects": 10000}
//	}
//
// where "*" is the default envelope for tenants not listed. On SIGINT/
// SIGTERM the server drains: it stops accepting connections, waits for
// in-flight requests, and saves every dirty tenant to the spill
// directory before exiting.
//
// -shards N splits every engine (the preloaded default tenant and each
// lazily created one) across N stores behind a scatter-gather
// coordinator: inserts route by time-range partition, queries fan out
// and merge, and compaction runs per shard in parallel; 0 or 1 serves
// one store. Every query runs each planned shard to completion: a 200
// carries the whole answer, and a request past its deadline answers
// 504. /stats carries one row per shard and /metrics the tir_shard_*
// family at every width.
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/;
// -slow-threshold tunes the slow-query log and -no-trace disables
// per-query span recording (metrics stay on).
//
// Datasets loaded from .tirc files carry element ids, not strings; their
// terms surface as "e<ID>" placeholders. For a string-term corpus, start
// empty and POST documents.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	temporalir "repro"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// drainTimeout bounds the graceful-shutdown wait for in-flight
// requests; dirty tenants are saved after it either way.
const drainTimeout = 30 * time.Second

// loadTenantLimits parses the -tenant-limits JSON file: a map of tenant
// id to limits, with "*" as the envelope for unlisted tenants.
func loadTenantLimits(path string) (func(id string) tenant.Limits, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	table := make(map[string]tenant.Limits)
	if err := json.Unmarshal(raw, &table); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fallback := table["*"]
	return func(id string) tenant.Limits {
		if lim, ok := table[id]; ok {
			return lim
		}
		return fallback
	}, nil
}

func main() {
	var (
		data      = flag.String("data", "", "optional .tirc dataset to preload")
		index     = flag.String("index", string(temporalir.IRHintPerf), "index method")
		addr      = flag.String("addr", ":8080", "listen address")
		slowThr   = flag.Duration("slow-threshold", obs.DefaultSlowThreshold, "slow-query log threshold (negative captures every query)")
		slowCap   = flag.Int("slow-capacity", obs.DefaultSlowCapacity, "slow-query log ring size")
		noTrace   = flag.Bool("no-trace", false, "disable per-query trace spans (metrics stay enabled)")
		withPprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		shards = flag.Int("shards", 0, "shard the corpus across N stores with a scatter-gather coordinator; 0 or 1 serves a single store")

		defTenant  = flag.String("default-tenant", tenant.DefaultID, "tenant served to requests without an "+tenant.Header+" header")
		reqTenant  = flag.Bool("require-tenant", false, "refuse requests without an "+tenant.Header+" header (401)")
		maxTenants = flag.Int("max-tenants", 0, "max resident tenants; 0 is unlimited (cold tenants evict to -tenant-spill)")
		spillDir   = flag.String("tenant-spill", "", "directory for evicted-tenant snapshots (empty disables eviction)")
		limitsFile = flag.String("tenant-limits", "", "JSON file of per-tenant limits (\"*\" entry is the default)")
	)
	flag.Parse()

	if err := tenant.ValidateID(*defTenant); err != nil {
		fmt.Fprintf(os.Stderr, "irserve: -default-tenant: %v\n", err)
		os.Exit(1)
	}
	var limitsFn func(id string) tenant.Limits
	if *limitsFile != "" {
		var err error
		limitsFn, err = loadTenantLimits(*limitsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irserve: -tenant-limits: %v\n", err)
			os.Exit(1)
		}
	}
	if *spillDir != "" {
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "irserve: -tenant-spill: %v\n", err)
			os.Exit(1)
		}
	}

	b := temporalir.NewBuilder()
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irserve: %v\n", err)
			os.Exit(1)
		}
		coll, err := encoding.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "irserve: reading %s: %v\n", *data, err)
			os.Exit(1)
		}
		for i := range coll.Objects {
			o := &coll.Objects[i]
			terms := make([]string, len(o.Elems))
			for k, e := range o.Elems {
				terms[k] = fmt.Sprintf("e%d", e)
			}
			b.Add(o.Interval.Start, o.Interval.End, terms...)
		}
	}

	start := time.Now()
	// Time-range partitioning over the preloaded corpus's domain; with
	// no data it falls back to hash. Every lazily created tenant gets a
	// sibling with the same shard options.
	engine, err := b.BuildSharded(temporalir.Method(*index), temporalir.Options{}, temporalir.ShardedOptions{Shards: max(*shards, 1)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "irserve: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("irserve: %d objects, %s (%d shards) built in %.2fs, listening on %s (default tenant %q)\n",
		engine.Len(), *index, engine.NumShards(), time.Since(start).Seconds(), *addr, *defTenant)

	observer := obs.NewObserver(obs.Config{
		SlowThreshold:  *slowThr,
		SlowCapacity:   *slowCap,
		DisableTracing: *noTrace,
	})
	app := server.NewWithOptions(engine, server.Options{
		Obs:           observer,
		DefaultTenant: *defTenant,
		RequireTenant: *reqTenant,
		MaxTenants:    *maxTenants,
		SpillDir:      *spillDir,
		TenantLimits:  limitsFn,
	})
	handler := http.Handler(app)
	if *withPprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful drain: stop accepting, let in-flight requests finish (up
	// to drainTimeout), then save every dirty tenant so their data
	// survives the restart.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		fmt.Printf("irserve: %v: draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "irserve: shutdown: %v\n", err)
		}
		if *spillDir != "" {
			if err := app.Registry().SaveDirty(); err != nil {
				fmt.Fprintf(os.Stderr, "irserve: saving tenants: %v\n", err)
			} else {
				fmt.Printf("irserve: saved dirty tenants to %s\n", *spillDir)
			}
		}
	}()

	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "irserve: %v\n", err)
		os.Exit(1)
	}
	<-done
}
