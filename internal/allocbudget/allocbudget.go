// Package allocbudget is the repository's allocation contract:
// checked-in per-kernel allocation budgets, enforced by tier-1 tests. It
// pins the measured steady-state allocs/op and B/op of the query kernels,
// whole queries and bulk builds, so any new allocation on those paths —
// an escaping make, an unsized append in a loop, a lost buffer reuse, an
// escape the compiler starts making — fails CI.
//
// Budgets live in BENCH_BUDGET.json at the module root. `make benchmem`
// re-measures and rewrites the file (ALLOC_BUDGET_RECORD=1), then
// re-runs the tests in enforcement mode against the fresh numbers.
package allocbudget

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// BudgetFile is the checked-in budget table at the module root.
const BudgetFile = "BENCH_BUDGET.json"

// RecordEnv, when set to a non-empty value, switches Gate from
// enforcement to record mode: measured numbers overwrite the entry.
const RecordEnv = "ALLOC_BUDGET_RECORD"

// Entry is one kernel's allocation budget: the steady-state
// allocations and bytes per benchmark operation.
type Entry struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// bytesSlackPct is the enforcement slack on B/op: byte counts wobble
// with amortized growth and size-class rounding where allocation counts
// do not, so bytes regress only past this percentage over budget.
const bytesSlackPct = 25

// bytesFloor is the least slack on B/op, whatever the budget. The byte
// counter is process-wide: the runtime and goroutines left over from
// earlier tests allocate a little while a kernel is measured, and a
// percentage of a zero budget forgives none of it.
const bytesFloor = 16

// runs is how many operations the warm-up executes, and each of the
// two measurements after it.
const runs = 500

// Gate measures op — one operation of the kernel, with any reused
// buffers captured by the closure — and compares it against the
// checked-in budget. In record mode (RecordEnv set) it instead writes
// the measured numbers back to the budget file.
func Gate(t *testing.T, kernel string, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skipf("allocbudget: skipping %s under -race; instrumentation changes allocation counts", kernel)
	}
	got := measure(op)

	path, err := budgetPath()
	if err != nil {
		t.Fatalf("allocbudget: %v", err)
	}
	if os.Getenv(RecordEnv) != "" {
		if err := record(path, kernel, got); err != nil {
			t.Fatalf("allocbudget: recording %s: %v", kernel, err)
		}
		t.Logf("allocbudget: recorded %s: %d allocs/op, %d B/op", kernel, got.AllocsPerOp, got.BytesPerOp)
		return
	}

	budgets, err := load(path)
	if err != nil {
		t.Fatalf("allocbudget: %v", err)
	}
	t.Logf("allocbudget: %s: %d allocs/op, %d B/op", kernel, got.AllocsPerOp, got.BytesPerOp)
	want, ok := budgets[kernel]
	if !ok {
		t.Fatalf("allocbudget: no budget for %s in %s; run `make benchmem` to record one", kernel, BudgetFile)
	}
	if got.AllocsPerOp > want.AllocsPerOp {
		t.Errorf("allocbudget: %s allocates %d allocs/op, budget is %d; fix the regression or re-budget with `make benchmem`",
			kernel, got.AllocsPerOp, want.AllocsPerOp)
	}
	if limit := want.BytesPerOp + max(want.BytesPerOp*bytesSlackPct/100, bytesFloor); got.BytesPerOp > limit {
		t.Errorf("allocbudget: %s allocates %d B/op, budget is %d (limit with slack: %d); fix the regression or re-budget with `make benchmem`",
			kernel, got.BytesPerOp, want.BytesPerOp, limit)
	}
}

// measure reports op's steady-state allocations and bytes per
// operation. testing.Benchmark is not used: it reads the process-wide
// counters across its own goroutine launches and calibration rounds,
// which showed up as a few B/op on zero-budget kernels about one run in
// six. Here the goroutine is locked to its thread, a warm-up lets
// reused buffers reach their final size, and the figures are the least
// of several short passes on one P — testing.AllocsPerRun for
// allocations, the TotalAlloc delta for bytes — because anything else
// that allocates in the process can only add to a pass, never take
// away.
func measure(op func()) Entry {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		op()
	}
	const passes = 5
	e := Entry{AllocsPerOp: math.MaxInt64, BytesPerOp: math.MaxInt64}
	var before, after runtime.MemStats
	for p := 0; p < passes; p++ {
		e.AllocsPerOp = min(e.AllocsPerOp, int64(testing.AllocsPerRun(runs/passes, op)))
		runtime.ReadMemStats(&before)
		for i := 0; i < runs/passes; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		e.BytesPerOp = min(e.BytesPerOp, int64(after.TotalAlloc-before.TotalAlloc)/(runs/passes))
	}
	return e
}

// budgetPath walks up from the working directory to the module root
// (the directory holding go.mod) and returns the budget file path.
func budgetPath() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, BudgetFile), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func load(path string) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]Entry{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]Entry)
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return out, nil
}

// record read-modify-writes one entry, keeping the file sorted by key
// so re-recording produces minimal diffs.
func record(path, kernel string, e Entry) error {
	budgets, err := load(path)
	if err != nil {
		return err
	}
	budgets[kernel] = e
	keys := make([]string, 0, len(budgets))
	for k := range budgets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Hand-rolled ordered emission: encoding/json sorts map keys too,
	// but an explicit object keeps the format obvious and stable.
	var buf []byte
	buf = append(buf, "{\n"...)
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(budgets[k])
		buf = append(buf, "  "...)
		buf = append(buf, kb...)
		buf = append(buf, ": "...)
		buf = append(buf, vb...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(path, buf, 0o644)
}
