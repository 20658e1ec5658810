// Command benchmark is the repository's benchmark: four fixed-work
// workloads timed end to end, checked against the brute-force oracle,
// and — with -trace 1 — taken apart layer by layer. README.md explains
// the workloads, the metrics and the run structure.
//
//	go run ./benchmark -workload lib_point -seed 1
//	go run ./benchmark -workload http_mixed -seed 1 -trace 1
//	go run ./benchmark -aa
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// epoch is set only in a child process: "timed" or "traced", and
	// epochIndex with it.
	epoch      string
	epochIndex int
	// idleSpin is set only in a keepAwake child: the CPU to spin on.
	idleSpin int
	aa       bool
	aaRuns   int
}

func main() {
	thpProcess = disableTHP() // before any corpus allocation
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: lib_point, lib_methods, http_point or http_mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured seconds the run is cut for; scales the windows per epoch")
	flag.IntVar(&o.trace, "trace", 0, "1 spends one epoch on the onion replay and reports the per-layer metrics")
	flag.StringVar(&o.epoch, "epoch", "", "internal: run one epoch of this kind in this process")
	flag.IntVar(&o.epochIndex, "epoch-index", 0, "internal: which epoch of the run this is")
	flag.IntVar(&o.idleSpin, "idle-spin", -1, "internal: spin on this CPU at SCHED_IDLE until standard input closes")
	flag.BoolVar(&o.aa, "aa", false, "A/A self-check: two interleaved sets of runs of every workload (or of -workload)")
	flag.IntVar(&o.aaRuns, "aa-runs", 5, "runs per set under -aa")
	flag.Parse()

	if o.idleSpin >= 0 {
		fmt.Fprintln(os.Stderr, "benchmark:", idleSpin(o.idleSpin))
		os.Exit(1)
	}
	ctx := context.Background()
	if o.aa {
		os.Exit(runAA(ctx, o, os.Stdout))
	}
	sz, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	var err error
	if o.epoch != "" {
		err = runChild(ctx, sz, o, os.Stdout)
	} else {
		var sum *summary
		if sum, err = runWorkload(ctx, sz, o, childEpoch, epochs, os.Stdout); err == nil && !sum.Correct {
			err = errors.New("failed operations")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// windowsFor scales the frozen window count by -seconds.
func windowsFor(sz sizes, seconds int) int {
	return max(minWindows, int(math.Round(float64(sz.windows*seconds)/runSeconds)))
}

// runChild runs one epoch in this process and prints its result as one
// JSON line.
func runChild(ctx context.Context, sz sizes, o options, out io.Writer) error {
	var stop func()
	stop, awake = keepAwake()
	defer stop()
	res, err := runEpoch(ctx, sz, o, o.epoch, o.epochIndex, windowsFor(sz, o.seconds))
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(res)
}

func runEpoch(ctx context.Context, sz sizes, o options, kind string, index, windows int) (*epochResult, error) {
	if kind == "traced" {
		return runTraced(ctx, sz, o.seed)
	}
	return runTimed(ctx, sz, o.seed, index, windows)
}

// epochFunc runs one epoch somewhere and returns its result.
type epochFunc func(ctx context.Context, sz sizes, o options, kind string, index int) (*epochResult, error)

// childEpoch re-executes this binary for one epoch, so that every epoch
// gets a fresh heap, fresh page placement and a fresh scheduler — the
// process-to-process differences are the noise the median across epochs
// removes.
func childEpoch(ctx context.Context, sz sizes, o options, kind string, index int) (*epochResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", sz.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-epoch", kind, "-epoch-index", strconv.Itoa(index))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s epoch of %s: %w", kind, sz.name, err)
	}
	var res epochResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s epoch of %s printed %q: %w", kind, sz.name, stdout.Bytes(), err)
	}
	return &res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output, in the form the
// benchmark contract fixes.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: everything behind the summary.
type report struct {
	Env      envBlock             `json:"env"`
	Seconds  float64              `json:"run_wall_s"`
	PerEpoch map[string][]float64 `json:"per_epoch"`
	Epochs   []*epochResult       `json:"epochs"`
	// LateEpochs are the epochs that were run a second time because the
	// first missed open-loop deadlines and nothing else.
	LateEpochs []int `json:"late_epochs,omitempty"`
}

// runWorkload runs the epochs of one workload one after another, never
// two at once, and reports the median across epochs of every metric.
// An untraced run makes all its epochs timed and prints the end-to-end
// metrics; a traced run trades the last one for the onion replay and
// prints the per-layer metrics.
func runWorkload(ctx context.Context, sz sizes, o options, run epochFunc, epochs int, out io.Writer) (*summary, error) {
	start := time.Now()
	kinds := make([]string, epochs)
	for i := range kinds {
		kinds[i] = "timed"
	}
	defs := endToEnd
	if o.trace != 0 {
		kinds[len(kinds)-1] = "traced"
		defs = perLayer
	}

	rep := report{PerEpoch: map[string][]float64{}}
	sum := &summary{Metrics: map[string]metricValue{}}
	var traced *epochResult
	for index, kind := range kinds {
		res, err := run(ctx, sz, o, kind, index)
		if err == nil && res.Late > 0 && res.Failed == res.Late {
			// Correct replies, some after the open loop's deadline: on a
			// shared host a withheld vCPU does that (README, "Noise
			// guards"). The epoch is run once more and the second result
			// stands; a program that is late by itself is late again.
			fmt.Fprintf(os.Stderr, "benchmark: epoch %d of %s missed %d deadlines; running it again\n", index, sz.name, res.Late)
			rep.LateEpochs = append(rep.LateEpochs, index)
			res, err = run(ctx, sz, o, kind, index)
		}
		if err != nil {
			return nil, err
		}
		rep.Epochs = append(rep.Epochs, res)
		rep.Env = res.Env
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		if kind == "traced" {
			traced = res
			continue
		}
		for _, d := range append(endToEnd, perLayer...) {
			if v, ok := res.Values[d.name]; ok {
				rep.PerEpoch[d.name] = append(rep.PerEpoch[d.name], v)
			}
		}
	}
	values := map[string]float64{"run.epoch_range_pct": rangePct(rep.PerEpoch["qps"])}
	for name, vs := range rep.PerEpoch {
		values[name] = median(vs)
	}
	if traced != nil {
		for name, v := range traced.Values {
			values[name] = v
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-34s %16.4f %s\n", d.name, v, d.unit)
	}
	sum.Correct = sum.Failed == 0
	rep.Seconds = time.Since(start).Seconds()

	enc := json.NewEncoder(out)
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return sum, enc.Encode(sum)
}
