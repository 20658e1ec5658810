package main

import (
	"context"
	"fmt"
	"io"
	"os"
)

// bounds mirrors the end_to_end bounds of BENCHMARK.json, in percent
// (smoke_test.go checks it), so that the A/A table can hold each gap
// against the bound it has to stay within.
var bounds = map[string]float64{
	"setup_s": 25, "qps": 25, "lat_p50_us": 25, "lat_p99_us": 25,
	"write_p50_us": 25, "compact_ms": 25, "bytes_per_object": 5,
}

// lowerIsBetter is the direction of every end-to-end metric but qps.
func lowerIsBetter(name string) bool { return name != "qps" }

// runAA is the A/A self-check that sets the bounds: two sets, A and B,
// of -aa-runs runs per workload of this same binary, interleaved
// A,B,A,B so that drift of the box lands on both; run i of either set
// uses seed i. It prints, per metric and workload, both medians, how
// much worse B's is than A's, each set's quartile spread, and the
// bound. With -aa-runs 10 this is the acceptance check itself;
// -workload narrows it to one workload.
func runAA(ctx context.Context, o options, out io.Writer) int {
	quiet := io.Discard
	status := 0
	fmt.Fprintf(out, "%-12s %-17s %14s %14s %8s %9s %9s %6s\n", "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
	for _, sz := range workloads {
		if o.workload != "" && o.workload != sz.name {
			continue
		}
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 1; i <= o.aaRuns; i++ {
			for s := range sets {
				ro := o
				ro.seed, ro.trace = int64(i), 0
				sum, err := runWorkload(ctx, sz, ro, childEpoch, epochs, quiet)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !sum.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d failed operations\n", sz.name, i, sum.Failed)
					status = 1
				}
				for name, m := range sum.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			worse := 100 * (b - a) / a
			if !lowerIsBetter(d.name) {
				worse = -worse
			}
			sa, sb := spreadPct(sets[0][d.name]), spreadPct(sets[1][d.name])
			verdict := ""
			if worse > bounds[d.name] || (d.name != "setup_s" && max(sa, sb) > bounds[d.name]) {
				verdict = "  OVER"
				status = 1
			}
			fmt.Fprintf(out, "%-12s %-17s %14.4f %14.4f %+7.2f%% %8.2f%% %8.2f%% %5.0f%%%s\n",
				sz.name, d.name, a, b, worse, sa, sb, bounds[d.name], verdict)
		}
	}
	return status
}
