package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	temporalir "repro"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// tiny returns a config small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.002, NumQueries: 30, Seed: 1}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.Scale != 0.01 || c.NumQueries != 1000 || c.Out == nil {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{Scale: 5}.Normalize()
	if c2.Scale != 0.01 {
		t.Errorf("out-of-range scale kept: %v", c2.Scale)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 11 {
		t.Fatalf("registry has %d experiments, want 11", len(exps))
	}
	for _, e := range exps {
		if e.Run == nil || e.Name == "" || e.Title == "" {
			t.Errorf("malformed experiment %+v", e)
		}
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) failed", e.Name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown experiment succeeded")
	}
}

func TestMeasureBuildAndThroughput(t *testing.T) {
	cfg := tiny()
	ds := eclogOnly(cfg)
	ix, bs := MeasureBuild(temporalir.IRHintPerf, ds.Coll, temporalir.Options{})
	if bs.Seconds < 0 || bs.SizeMB <= 0 {
		t.Errorf("BuildStats = %+v", bs)
	}
	qs := defaultWorkload(ds.Coll, cfg)
	if qps := Throughput(ix, qs); qps <= 0 {
		t.Errorf("Throughput = %v", qps)
	}
	if Throughput(ix, nil) != 0 {
		t.Error("empty workload should measure 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}}
	tab.Add("xxx", "1")
	tab.Add("y", "22")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"T", "xxx", "22", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRealDatasetsShape(t *testing.T) {
	dss := RealDatasets(tiny().Normalize())
	if len(dss) != 2 || dss[0].Name != "ECLOG" || dss[1].Name != "WIKIPEDIA" {
		t.Fatalf("datasets = %v", dss)
	}
	for _, ds := range dss {
		if ds.Coll.Len() < 50 {
			t.Errorf("%s too small: %d", ds.Name, ds.Coll.Len())
		}
	}
}

func TestClassifyBySelectivity(t *testing.T) {
	cfg := tiny()
	ds := eclogOnly(cfg)
	ix, _ := MeasureBuild(temporalir.IRHintPerf, ds.Coll, temporalir.Options{})
	pool := gen.MixedPool(ds.Coll, 200, 9)
	bins := classifyBySelectivity(ix, pool, ds.Coll.Len())
	total := 0
	for b, qs := range bins {
		if b < 0 || b >= len(gen.SelectivityBins) {
			t.Errorf("bin %d out of range", b)
		}
		total += len(qs)
	}
	if total == 0 {
		t.Fatal("no queries classified")
	}
	if total > len(pool) {
		t.Fatalf("classified %d > pool %d", total, len(pool))
	}
	if len(sortedBins(bins)) != len(bins) {
		t.Error("sortedBins lost bins")
	}
}

func TestShortNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(CompetitorMethods(),
		temporalir.TIFHintBinary, temporalir.TIFHintMerge, temporalir.TIF) {
		name := shortName(m)
		if name == "" {
			t.Errorf("empty short name for %s", m)
		}
		if seen[name] {
			t.Errorf("duplicate short name %q", name)
		}
		seen[name] = true
	}
	if shortName(temporalir.Method("custom")) != "custom" {
		t.Error("unknown methods should pass through")
	}
}

func TestExtentLabels(t *testing.T) {
	got := extentLabels([]float64{0.0001, 0.001, 1.0})
	want := []string{"0.01", "0.1", "100"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v, want %v", got, want)
		}
	}
}

func TestTimeIt(t *testing.T) {
	ran := false
	secs := timeIt(func() { ran = true })
	if !ran || secs < 0 {
		t.Errorf("timeIt: ran=%v secs=%v", ran, secs)
	}
}

// Smoke tests: every experiment driver must run to completion at tiny
// scale and produce plausible output.
func TestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	markers := map[string][]string{
		"table3":   {"Cardinality", "Figure 7"},
		"fig8":     {"#slices", "throughput"},
		"fig9":     {"variant", "m"},
		"fig10":    {"|q.d|", "element frequency"},
		"table5":   {"irHINT (perf)", "size ECLOG [MB]"},
		"fig11":    {"tIF+Slicing", "# results"},
		"table6":   {"insertions", "10%"},
		"table7":   {"deletions", "tIF+Sharding"},
		"ablation": {"hierarchy depth"},
		"verify":   {"equivalence", "mismatches"},
	}
	for name, wants := range markers {
		name, wants := name, wants
		t.Run(name, func(t *testing.T) {
			exp, ok := Lookup(name)
			if !ok {
				t.Fatal("missing experiment")
			}
			var buf bytes.Buffer
			cfg := tiny()
			cfg.Out = &buf
			exp.Run(cfg)
			for _, w := range wants {
				if !strings.Contains(buf.String(), w) {
					t.Errorf("output missing %q:\n%s", w, firstLines(buf.String(), 30))
				}
			}
			if strings.Contains(buf.String(), equivalenceBroken) {
				t.Errorf("an index disagreed with the oracle:\n%s", buf.String())
			}
		})
	}
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 smoke is the slowest driver")
	}
	var buf bytes.Buffer
	cfg := Config{Scale: 0.0008, NumQueries: 15, Seed: 2, Out: &buf}
	RunFig12(cfg)
	for _, w := range []string{"cardinality", "alpha", "zeta", "sigma", "description size"} {
		if !strings.Contains(buf.String(), w) {
			t.Errorf("fig12 output missing %q", w)
		}
	}
}

// TestPerfJSONStagesParity checks that tracing never changes results:
// every method answers the benchmark workload once plainly and once
// with an obs.Trace on each query, and the two workload checksums must
// be identical. At least one method must record a stage breakdown, so
// the traced pass really exercised the instrumented paths.
func TestPerfJSONStagesParity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	cfg := tiny()
	ds := eclogOnly(cfg)
	queries := defaultWorkload(ds.Coll, cfg)
	tracedBreakdowns := 0
	for _, m := range append([]temporalir.Method{temporalir.TIF}, temporalir.Methods()...) {
		ix, _ := MeasureBuild(m, ds.Coll, temporalir.Options{})
		tr := obs.NewTrace(string(m))
		plain := make([][]model.ObjectID, len(queries))
		traced := make([][]model.ObjectID, len(queries))
		for i, q := range queries {
			plain[i] = slices.Clone(ix.Query(q))
			q.Trace = tr
			traced[i] = slices.Clone(ix.Query(q))
		}
		if got, want := testutil.WorkloadChecksum(traced), testutil.WorkloadChecksum(plain); got != want {
			t.Errorf("%s: traced checksum %s != untraced %s", m, got, want)
		}
		if len(tr.Summary().Stages) > 0 {
			tracedBreakdowns++
		}
	}
	if tracedBreakdowns == 0 {
		t.Error("no method reported a stage breakdown with tracing on")
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
