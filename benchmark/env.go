package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// envBlock is carried by every output, so that a disputed number can be
// traced to the box, build and inputs that produced it.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	THP        string  `json:"thp"`
	THPProcess string  `json:"thp_process"`
	KeepAwake  string  `json:"keep_awake"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Scale      float64 `json:"scale"`
}

// thpProcess is what disableTHP reported when main called it, and awake
// what keepAwake reported when the epoch's process called it.
var (
	thpProcess = "not attempted"
	awake      = "not attempted"
)

func environment(seed int64, sz sizes) envBlock {
	// run.sh passes the commit; a hand-built binary carries it itself. A
	// driver's checkout is not a git repository and has neither.
	commit := os.Getenv("BENCH_COMMIT")
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return envBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelVersion(),
		THP:        thpSetting(),
		THPProcess: thpProcess,
		KeepAwake:  awake,
		Commit:     commit,
		Seed:       seed,
		Workload:   sz.name,
		Scale:      sz.scale,
	}
}

// spin is a fixed piece of register-only work (xorshift64), about two
// nanoseconds a step.
func spin(steps int) uint64 {
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += x
	}
	return sum
}

var spinSink [2]uint64

// settleLimit is how long settleCPUs keeps trying. A variable only so
// that the smoke test, which asserts no timing, can skip the wait.
var settleLimit = 5 * time.Second

// settleCPUs holds the epoch until the box runs two threads of this
// process side by side. A fresh process on the sizing box spends its
// first one to three seconds with all its threads on one CPU: two
// goroutines spinning together take twice as long as one alone, and
// under the light load of an open-loop window the kernel may leave them
// there for the whole epoch — every parallel phase (two connections,
// the coordinator's per-shard compaction, GC beside a query) then runs
// 1.5 to 2 times slower, in some epochs and not in others. Spinning on
// both until a pair takes no longer than 1.2 solos makes the kernel
// spread them, and from then on the placement holds. It reports how
// long that took; after settleLimit it gives up and says so.
func settleCPUs() (took time.Duration, settled bool) {
	const steps = 10_000_000 // about 20 ms
	start := time.Now()
	for time.Since(start) < settleLimit {
		t0 := time.Now()
		spinSink[0] += spin(steps)
		solo := time.Since(t0)
		var wg sync.WaitGroup
		t0 = time.Now()
		for k := range spinSink {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spinSink[k] += spin(steps)
			}()
		}
		wg.Wait()
		if pair := time.Since(t0); float64(pair) < 1.2*float64(solo) {
			return time.Since(start), true
		}
	}
	return time.Since(start), false
}
