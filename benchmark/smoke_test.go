package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestSpecMatchesBenchmarkJSON pins the tables in sizes.go and aa.go to
// the contract file the driver reads.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in sizes.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in sizes.go", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, sizes.go %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end %d: %s [%s] in BENCHMARK.json, %s [%s] in sizes.go", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound*100 != bounds[m.Name] {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v%% in aa.go", m.Name, m.Bound, bounds[m.Name])
		}
		if want := map[bool]string{true: "lower", false: "higher"}[lowerIsBetter(m.Name)]; m.Better != want {
			t.Errorf("%s: better %q, want %q", m.Name, m.Better, want)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer %d: %s [%s] in BENCHMARK.json, %s [%s] in sizes.go", i, m.Name, m.Unit, d.name, d.unit)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
}

// smokeSizes shrinks a workload to a fraction of a second: scale 0.005
// and a sixteenth of the reads.
func smokeSizes(sz sizes) sizes {
	sz.scale = 0.005
	sz.reads /= 16
	sz.burst = min(sz.burst, 16)
	if sz.ops > 0 {
		sz.ops = 200
	}
	return sz
}

// TestSmoke runs every workload small, once untraced (E = 1, W = 2) and
// once traced (one timed epoch, then the onion replay), in this
// process, and checks what a run must always hold: every metric of
// BENCHMARK.json printed once under its unit, no failed operation, a
// trace whose spans all have their parents. It asserts no timing.
func TestSmoke(t *testing.T) {
	lateLimit = time.Minute // a loaded test box must not fail replies for lateness
	poolFloor = 1 << 10
	settleLimit = 0
	outDir = t.TempDir()
	// The traced run's timed epoch is the untraced run's, kept.
	done := map[string]*epochResult{}
	inProcess := func(ctx context.Context, sz sizes, o options, kind string, index int) (*epochResult, error) {
		if res := done[sz.name+kind]; res != nil {
			return res, nil
		}
		res, err := runEpoch(ctx, sz, o, kind, index, 2)
		done[sz.name+kind] = res
		return res, err
	}
	ctx := context.Background()
	for _, w := range workloads {
		sz := smokeSizes(w)
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			sum, err := runWorkload(ctx, sz, options{seed: 7, trace: trace}, inProcess, 1+trace, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sz.name, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", sz.name, trace, sum.Correct, sum.Attempted, sum.Failed)
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics in the summary, want %d", sz.name, trace, len(sum.Metrics), len(defs))
			}
			lines := strings.Split(out.String(), "\n")
			for _, d := range defs {
				if m, ok := sum.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: summary has %s as %+v, want unit %s", sz.name, trace, d.name, m, d.unit)
				}
				printed := 0
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%d: %s printed %d times", sz.name, trace, d.name, printed)
				}
			}
			// The last line is the summary, alone.
			var last summary
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &last); err != nil || len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: last line %q: %v", sz.name, trace, lines[len(lines)-2], err)
			}
		}
		checkTrace(t, filepath.Join(outDir, "trace-"+sz.name+".jsonl"))
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int]bool{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if ids[s.ID] {
			t.Errorf("%s: span id %d twice", path, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) names parent %d, which does not exist", path, s.ID, s.Name, s.Parent)
		}
		seen[s.Name] = true
	}
	for _, boundary := range []string{"index.irhint_perf.query", "engine.search", "shard4.search", "server.search", "socket.search"} {
		if !seen[boundary] {
			t.Errorf("%s: no span for boundary %s", path, boundary)
		}
	}
}

// TestLateEpochRunsAgain pins what a run does with an epoch whose only
// failures are open-loop deadlines: it runs that epoch once more and
// keeps the second result, whatever that is.
func TestLateEpochRunsAgain(t *testing.T) {
	for _, tc := range []struct {
		name              string
		lateRuns, wantRun int
		wantCorrect       bool
	}{
		{"stall passes", 1, 2, true},
		{"late twice fails", 2, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			fake := func(context.Context, sizes, options, string, int) (*epochResult, error) {
				runs++
				res := &epochResult{Values: map[string]float64{}, Attempted: 10}
				for _, d := range endToEnd {
					res.Values[d.name] = 1
				}
				if runs <= tc.lateRuns {
					res.Failed, res.Late = 3, 3
				}
				return res, nil
			}
			sum, err := runWorkload(context.Background(), workloads[0], options{}, fake, 1, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if runs != tc.wantRun || sum.Correct != tc.wantCorrect || sum.Attempted != 10 {
				t.Errorf("%d epoch runs, correct=%v attempted=%d; want %d, %v, 10", runs, sum.Correct, sum.Attempted, tc.wantRun, tc.wantCorrect)
			}
		})
	}
}
