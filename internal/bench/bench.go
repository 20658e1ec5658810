// Package bench is the experiment harness of the reproduction: it rebuilds
// every table and figure of the paper's evaluation (Section 5) — dataset
// statistics, tuning sweeps, the throughput comparisons on real-data
// stand-ins and synthetic sweeps, and the update-cost tables — printing
// the same rows/series the paper reports.
//
// Every experiment takes a Config whose Scale shrinks the workloads so the
// full suite runs on a laptop; the shapes (who wins, by what factor, where
// crossovers fall) are what EXPERIMENTS.md compares against the paper.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	temporalir "repro"
	"repro/internal/gen"
	"repro/internal/model"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale in (0, 1] shrinks dataset cardinalities; 1.0 reproduces the
	// paper's sizes (hours of runtime). The CLI default is 0.01.
	Scale float64
	// NumQueries per measurement point (paper: 10000).
	NumQueries int
	// Seed drives all generators.
	Seed int64
	// Out receives the rendered tables.
	Out io.Writer
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 0.01
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 1000
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config)
}

// Experiments returns the registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table3", "Table 3 / Figure 7: dataset characteristics", RunTable3},
		{"fig8", "Figure 8: tuning tIF+Slicing", RunFig8},
		{"fig9", "Figure 9: tuning the tIF+HINT variants", RunFig9},
		{"fig10", "Figure 10: comparing the tIF+HINT variants", RunFig10},
		{"table5", "Table 5: indexing costs", RunTable5},
		{"fig11", "Figure 11: all methods on real-data stand-ins", RunFig11},
		{"fig12", "Figure 12: all methods on synthetic sweeps", RunFig12},
		{"table6", "Table 6: insertion update costs", RunTable6},
		{"table7", "Table 7: deletion update costs", RunTable7},
		{"ablation", "Ablation: irHINT hierarchy depth m sweep", RunAblations},
		{"verify", "Verification: result equivalence of every index vs brute force", RunVerify},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// CompetitorMethods is the Table 5 / Figure 11 line-up (the tuned
// tIF+HINT representative is the hybrid, per Section 5.3).
func CompetitorMethods() []temporalir.Method {
	return []temporalir.Method{
		temporalir.TIFSlicing,
		temporalir.TIFSharding,
		temporalir.TIFHintSlicing,
		temporalir.IRHintPerf,
		temporalir.IRHintSize,
	}
}

// MeasureBuild times index construction and reports its size.
func MeasureBuild(m temporalir.Method, c *model.Collection, opts temporalir.Options) (temporalir.Index, BuildStats) {
	start := time.Now()
	ix, err := temporalir.NewIndex(m, c, opts)
	if err != nil {
		panic(err) // registry methods cannot fail
	}
	return ix, BuildStats{
		Seconds: time.Since(start).Seconds(),
		SizeMB:  float64(ix.SizeBytes()) / (1 << 20),
	}
}

// BuildStats is one Table 5 cell pair.
type BuildStats struct {
	Seconds float64
	SizeMB  float64
}

// Throughput measures queries/second over the workload, repeating the
// batch until at least minDuration has elapsed.
func Throughput(ix temporalir.Index, queries []model.Query) float64 {
	const minDuration = 20 * time.Millisecond
	if len(queries) == 0 {
		return 0
	}
	ran := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		for _, q := range queries {
			_ = ix.Query(q)
			ran++
		}
	}
	return float64(ran) / time.Since(start).Seconds()
}

// Table is a rendered experiment artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "\n%s\n", t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// f2, f1 and f0 format floats for table cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// timeIt measures one function call in seconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// shortName maps methods to the labels the paper's tables use.
func shortName(m temporalir.Method) string {
	switch m {
	case temporalir.TIF:
		return "tIF"
	case temporalir.TIFSlicing:
		return "tIF+Slicing"
	case temporalir.TIFSharding:
		return "tIF+Sharding"
	case temporalir.TIFHintBinary:
		return "tIF+HINT (binary)"
	case temporalir.TIFHintMerge:
		return "tIF+HINT (merge)"
	case temporalir.TIFHintSlicing:
		return "tIF+HINT+Slicing"
	case temporalir.IRHintPerf:
		return "irHINT (perf)"
	case temporalir.IRHintSize:
		return "irHINT (size)"
	case temporalir.Routed:
		return "routed"
	default:
		return string(m)
	}
}

// classifyBySelectivity buckets queries into the paper's result-size bins
// using result counts from a reference index.
func classifyBySelectivity(ix temporalir.Index, pool []model.Query, cardinality int) map[int][]model.Query {
	out := make(map[int][]model.Query)
	for _, q := range pool {
		n := len(ix.Query(q))
		frac := float64(n) / float64(cardinality)
		for b, bounds := range gen.SelectivityBins {
			if b == 0 {
				if n == 0 {
					out[0] = append(out[0], q)
					break
				}
				continue
			}
			if n > 0 && frac > bounds[0] && frac <= bounds[1] {
				out[b] = append(out[b], q)
				break
			}
		}
	}
	return out
}

// sortedBins returns the populated bin indices in order.
func sortedBins(m map[int][]model.Query) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
