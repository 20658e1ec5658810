package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	temporalir "repro"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// PerfMethod is one per-method row of the JSON perf artifact.
type PerfMethod struct {
	Method          string  `json:"method"`
	Label           string  `json:"label"`
	BuildSeconds    float64 `json:"build_seconds"`
	SizeBytes       int64   `json:"size_bytes"`
	QueryMicrosMean float64 `json:"query_micros_mean"`
	QueriesPerSec   float64 `json:"queries_per_sec"`
	ResultRows      int     `json:"result_rows"`
	// Batch-executor measurements: the same workload evaluated through
	// the worker pool (the SearchBatch hot path), versus the serial loop
	// above. SpeedupX = BatchQueriesPerSec / QueriesPerSec; it tracks the
	// worker count on multi-core hosts and sits near 1.0 when
	// gomaxprocs=1 (the pool degrades to the caller-runs serial path).
	BatchMicrosMean    float64 `json:"batch_query_micros_mean"`
	BatchQueriesPerSec float64 `json:"batch_queries_per_sec"`
	SpeedupX           float64 `json:"speedup_x"`
	// SerialChecksum and BatchChecksum hash the canonical per-query
	// result sets; they must be identical to each other (parallelism
	// cannot change results) and across methods and runs.
	SerialChecksum string `json:"serial_checksum"`
	BatchChecksum  string `json:"batch_checksum"`
	// Stages is the per-stage breakdown of the serial pass, present
	// when the run was configured with Config.Stages (irbench -stages).
	Stages []StageRow `json:"stages,omitempty"`
}

// PerfReport is the BENCH_pr*.json schema: one deterministic workload
// (fixed seed, fixed scale), every method of the family measured on it.
// ResultRows is a workload checksum — it must be identical across methods
// and across runs, so regressions in timing are comparable run to run
// while correctness drift is immediately visible.
type PerfReport struct {
	Scale      float64      `json:"scale"`
	NumQueries int          `json:"num_queries"`
	Seed       int64        `json:"seed"`
	Objects    int          `json:"objects"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Methods    []PerfMethod `json:"methods"`
}

// BatchThroughput measures queries/second with the workload evaluated
// through the worker pool, repeating until at least minDuration elapsed —
// the batch counterpart of Throughput.
func BatchThroughput(ix temporalir.Index, queries []model.Query, pool *exec.Pool) float64 {
	const minDuration = 20 * time.Millisecond
	if len(queries) == 0 {
		return 0
	}
	ran := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		_ = exec.RunBatch(pool, queries, ix.Query)
		ran += len(queries)
	}
	return float64(ran) / time.Since(start).Seconds()
}

// RunPerfJSON measures every index method — build time, resident size,
// serial query latency and batch (worker-pool) latency — on the default
// synthetic dataset under the paper's default query workload, both seeded
// from cfg.Seed. The rendered table goes to cfg.Out; when cfg.JSONPath is
// set the report is also written there as indented JSON, seeding the
// repository's perf trajectory (BENCH_pr2.json and successors).
func RunPerfJSON(cfg Config) {
	cfg = cfg.Normalize()
	coll := syntheticDefault(cfg, nil)
	queries := defaultWorkload(coll, cfg)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	pool := exec.NewPool(workers)
	report := PerfReport{
		Scale:      cfg.Scale,
		NumQueries: len(queries),
		Seed:       cfg.Seed,
		Objects:    coll.Len(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}

	methods := append([]temporalir.Method{temporalir.TIF}, temporalir.Methods()...)
	tbl := &Table{
		Title:  "Deterministic perf snapshot (serial vs batch query latency + index size)",
		Header: []string{"method", "build s", "size MB", "query us", "queries/s", "batch q/s", "speedup", "rows"},
	}
	for _, m := range methods {
		ix, bs := MeasureBuild(m, coll, temporalir.Options{})
		rows := 0
		// With -stages the serial pass carries a trace recorder; the
		// breakdown lands in the method's JSON row. Tracing cannot
		// change results (checksums below would catch it if it did).
		var tr *obs.Trace
		serialQueries := queries
		if cfg.Stages {
			tr = obs.NewTrace(string(m))
			serialQueries = withTrace(queries, tr)
		}
		serialResults := make([][]model.ObjectID, len(serialQueries))
		for i, q := range serialQueries {
			serialResults[i] = ix.Query(q)
			rows += len(serialResults[i])
		}
		batchResults := exec.RunBatch(pool, queries, ix.Query)
		serialSum := testutil.WorkloadChecksum(serialResults)
		batchSum := testutil.WorkloadChecksum(batchResults)
		qps := Throughput(ix, queries)
		bqps := BatchThroughput(ix, queries, pool)
		micros, bmicros, speedup := 0.0, 0.0, 0.0
		if qps > 0 {
			micros = 1e6 / qps
			speedup = bqps / qps
		}
		if bqps > 0 {
			bmicros = 1e6 / bqps
		}
		report.Methods = append(report.Methods, PerfMethod{
			Method:             string(m),
			Label:              shortName(m),
			BuildSeconds:       bs.Seconds,
			SizeBytes:          ix.SizeBytes(),
			QueryMicrosMean:    micros,
			QueriesPerSec:      qps,
			ResultRows:         rows,
			BatchMicrosMean:    bmicros,
			BatchQueriesPerSec: bqps,
			SpeedupX:           speedup,
			SerialChecksum:     serialSum,
			BatchChecksum:      batchSum,
			Stages:             stageBreakdown(tr),
		})
		tbl.Add(shortName(m), f2(bs.Seconds), f2(bs.SizeMB), f1(micros), f0(qps), f0(bqps), f2(speedup), fmt.Sprint(rows))
		if serialSum != batchSum {
			fmt.Fprintf(cfg.Out, "perfjson: WARNING %s: batch checksum %s != serial %s\n", m, batchSum, serialSum)
		}
	}
	tbl.Fprint(cfg.Out)

	if cfg.JSONPath == "" {
		return
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(cfg.Out, "perfjson: marshal: %v\n", err)
		return
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(cfg.JSONPath, blob, 0o644); err != nil {
		fmt.Fprintf(cfg.Out, "perfjson: write %s: %v\n", cfg.JSONPath, err)
		return
	}
	fmt.Fprintf(cfg.Out, "\nwrote %s\n", cfg.JSONPath)
}
