package bench

import (
	"fmt"
	"runtime"

	temporalir "repro"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/stats"
)

// RunTable3 prints the Table 3 characteristics and Figure 7 distributions
// of the two real-data stand-ins.
func RunTable3(cfg Config) {
	cfg = cfg.Normalize()
	for _, ds := range RealDatasets(cfg) {
		s := stats.Compute(ds.Coll)
		fmt.Fprintln(cfg.Out, s.Table(ds.Name))
		durs := stats.LogHistogram("Figure 7 (left): interval duration distribution ["+ds.Name+"]",
			stats.Durations(ds.Coll), 10)
		fmt.Fprintln(cfg.Out, durs.Render(48))
		freqs := stats.LogHistogram("Figure 7 (right): element frequency distribution ["+ds.Name+"]",
			stats.Frequencies(ds.Coll), 10)
		fmt.Fprintln(cfg.Out, freqs.Render(48))
	}
}

// fig8SliceCounts is the Figure 8 x-axis.
var fig8SliceCounts = []int{1, 10, 25, 50, 100, 150, 200, 250}

// RunFig8 reproduces the tIF+Slicing tuning sweep: indexing time, index
// size and query throughput versus the number of slices.
func RunFig8(cfg Config) {
	cfg = cfg.Normalize()
	for _, ds := range RealDatasets(cfg) {
		queries := defaultWorkload(ds.Coll, cfg)
		t := Table{
			Title:  "Figure 8: tuning tIF+Slicing [" + ds.Name + "]",
			Header: []string{"#slices", "index time [s]", "size [MB]", "throughput [q/s]"},
		}
		for _, k := range fig8SliceCounts {
			ix, bs := MeasureBuild(temporalir.TIFSlicing, ds.Coll, temporalir.Options{Slices: k})
			t.Add(fmt.Sprint(k), f2(bs.Seconds), f1(bs.SizeMB), f0(Throughput(ix, queries)))
		}
		t.Fprint(cfg.Out)
	}
}

// fig9MValues is the Figure 9 x-axis.
var fig9MValues = []int{1, 3, 5, 8, 10, 12, 16, 20}

// RunFig9 reproduces the tIF+HINT tuning sweep over the number of bits m
// for all three variants.
func RunFig9(cfg Config) {
	cfg = cfg.Normalize()
	variants := []temporalir.Method{
		temporalir.TIFHintBinary, temporalir.TIFHintMerge, temporalir.TIFHintSlicing,
	}
	for _, ds := range RealDatasets(cfg) {
		queries := defaultWorkload(ds.Coll, cfg)
		t := Table{
			Title:  "Figure 9: tuning tIF+HINT variants [" + ds.Name + "]",
			Header: []string{"variant", "m", "index time [s]", "size [MB]", "throughput [q/s]"},
		}
		for _, v := range variants {
			for _, m := range fig9MValues {
				ix, bs := MeasureBuild(v, ds.Coll, temporalir.Options{M: m})
				t.Add(shortName(v), fmt.Sprint(m), f2(bs.Seconds), f1(bs.SizeMB),
					f0(Throughput(ix, queries)))
			}
		}
		t.Fprint(cfg.Out)
	}
}

// fig10and11Extents are the query-extent sweeps (fraction of the domain).
var fig10Extents = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01}
var fig11Extents = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0}

// RunFig10 compares the three tIF+HINT variants (at their tuned m) over
// query extent, description size and element frequency.
func RunFig10(cfg Config) {
	cfg = cfg.Normalize()
	variants := []temporalir.Method{
		temporalir.TIFHintBinary, temporalir.TIFHintMerge, temporalir.TIFHintSlicing,
	}
	for _, ds := range RealDatasets(cfg) {
		indices := map[temporalir.Method]temporalir.Index{}
		for _, v := range variants {
			indices[v], _ = MeasureBuild(v, ds.Coll, temporalir.Options{})
		}
		throughputSweeps(cfg, ds, variants, indices,
			"Figure 10 ["+ds.Name+"]", fig10Extents, false)
	}
}

// RunTable5 reproduces the indexing-cost table: build time and size for
// every method on both datasets. Every build runs at GOMAXPROCS 1: five of
// the seven methods fill their divisions in parallel, and the table
// compares methods, not how many cores each can use.
func RunTable5(cfg Config) {
	cfg = cfg.Normalize()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	methods := []temporalir.Method{
		temporalir.TIFSlicing, temporalir.TIFSharding,
		temporalir.TIFHintBinary, temporalir.TIFHintMerge, temporalir.TIFHintSlicing,
		temporalir.IRHintPerf, temporalir.IRHintSize,
	}
	datasets := RealDatasets(cfg)
	t := Table{
		Title:  "Table 5: indexing costs (no compression used)",
		Header: []string{"index", "time ECLOG [s]", "time WIKI [s]", "size ECLOG [MB]", "size WIKI [MB]"},
	}
	for _, m := range methods {
		row := []string{shortName(m)}
		var times, sizes []string
		for _, ds := range datasets {
			_, bs := MeasureBuild(m, ds.Coll, temporalir.Options{})
			times = append(times, f2(bs.Seconds))
			sizes = append(sizes, f1(bs.SizeMB))
		}
		row = append(row, times...)
		row = append(row, sizes...)
		t.Add(row...)
	}
	t.Fprint(cfg.Out)
}

// RunFig11 compares the tuned competitors over the four experimental
// parameters on the real-data stand-ins.
func RunFig11(cfg Config) {
	cfg = cfg.Normalize()
	methods := CompetitorMethods()
	for _, ds := range RealDatasets(cfg) {
		indices := map[temporalir.Method]temporalir.Index{}
		for _, m := range methods {
			indices[m], _ = MeasureBuild(m, ds.Coll, temporalir.Options{})
		}
		throughputSweeps(cfg, ds, methods, indices,
			"Figure 11 ["+ds.Name+"]", fig11Extents, true)
	}
}

// throughputSweeps prints the extent, |q.d|, element-frequency and
// (optionally) selectivity series for the given methods.
func throughputSweeps(cfg Config, ds Dataset, methods []temporalir.Method,
	indices map[temporalir.Method]temporalir.Index, title string,
	extents []float64, withSelectivity bool) {

	// (1) Query interval extent.
	t := Table{Title: title + ": throughput vs query interval extent [%]",
		Header: append([]string{"index"}, extentLabels(extents)...)}
	for _, m := range methods {
		row := []string{shortName(m)}
		for _, ext := range extents {
			qs := gen.Workload(ds.Coll, gen.QueryConfig{ExtentFrac: ext, NumElems: 3},
				cfg.NumQueries, cfg.Seed+101)
			row = append(row, f0(Throughput(indices[m], qs)))
		}
		t.Add(row...)
	}
	t.Fprint(cfg.Out)

	// (2) Description size |q.d|.
	t = Table{Title: title + ": throughput vs |q.d|",
		Header: []string{"index", "1", "2", "3", "4", "5"}}
	for _, m := range methods {
		row := []string{shortName(m)}
		for nd := 1; nd <= 5; nd++ {
			qs := gen.Workload(ds.Coll, gen.QueryConfig{ExtentFrac: 0.001, NumElems: nd},
				cfg.NumQueries, cfg.Seed+211)
			row = append(row, f0(Throughput(indices[m], qs)))
		}
		t.Add(row...)
	}
	t.Fprint(cfg.Out)

	// (3) Element frequency bins.
	t = Table{Title: title + ": throughput vs element frequency [%]",
		Header: append([]string{"index"}, gen.FreqBinLabels[:]...)}
	rows := make([][]string, len(methods))
	for i, m := range methods {
		rows[i] = []string{shortName(m)}
		_ = m
	}
	for b := range gen.FreqBins {
		bin := gen.FreqBins[b]
		elems := gen.ElementsInFreqBin(ds.Coll, bin[0], bin[1])
		var qs []model.Query
		if len(elems) > 0 {
			qs = gen.Workload(ds.Coll, gen.QueryConfig{ExtentFrac: 0.001, NumElems: 3, FreqBin: &bin},
				cfg.NumQueries, cfg.Seed+307)
		}
		for i, m := range methods {
			if len(qs) == 0 {
				rows[i] = append(rows[i], "-")
				continue
			}
			rows[i] = append(rows[i], f0(Throughput(indices[m], qs)))
		}
	}
	for _, r := range rows {
		t.Add(r...)
	}
	t.Fprint(cfg.Out)

	if !withSelectivity {
		return
	}

	// (4) Result-count (selectivity) bins, classified with the first
	// method as reference (all methods return identical results).
	pool := gen.MixedPool(ds.Coll, cfg.NumQueries*3, cfg.Seed+401)
	bins := classifyBySelectivity(indices[methods[0]], pool, ds.Coll.Len())
	t = Table{Title: title + ": throughput vs # results [% of cardinality]",
		Header: []string{"index"}}
	binIdx := sortedBins(bins)
	for _, b := range binIdx {
		t.Header = append(t.Header, fmt.Sprintf("%s (n=%d)", gen.SelectivityBinLabels[b], len(bins[b])))
	}
	for _, m := range methods {
		row := []string{shortName(m)}
		for _, b := range binIdx {
			row = append(row, f0(Throughput(indices[m], bins[b])))
		}
		t.Add(row...)
	}
	t.Fprint(cfg.Out)
}

func extentLabels(extents []float64) []string {
	out := make([]string, len(extents))
	for i, e := range extents {
		out[i] = fmt.Sprintf("%g", e*100)
	}
	return out
}

// RunFig12 reproduces the synthetic sweeps: one series per Table 4
// construction parameter plus the four query parameters at defaults.
func RunFig12(cfg Config) {
	cfg = cfg.Normalize()
	methods := CompetitorMethods()

	sweep := func(title string, labels []string, build func(i int) *model.Collection) {
		t := Table{Title: "Figure 12: throughput vs " + title,
			Header: append([]string{"index"}, labels...)}
		rows := make([][]string, len(methods))
		for i := range methods {
			rows[i] = []string{shortName(methods[i])}
		}
		for pt := range labels {
			c := build(pt)
			queries := gen.Workload(c, gen.DefaultQueryConfig(), cfg.NumQueries, cfg.Seed+500+int64(pt))
			for i, m := range methods {
				ix, _ := MeasureBuild(m, c, temporalir.Options{})
				rows[i] = append(rows[i], f0(Throughput(ix, queries)))
			}
		}
		for _, r := range rows {
			t.Add(r...)
		}
		t.Fprint(cfg.Out)
	}

	// Cardinality sweep (paper: 100K..10M, scaled).
	cards := []float64{100_000, 500_000, 1_000_000, 5_000_000, 10_000_000}
	sweep("dataset cardinality", []string{"100K", "500K", "1M", "5M", "10M"}, func(i int) *model.Collection {
		return syntheticDefault(cfg, func(sc *gen.SyntheticConfig) {
			sc.Cardinality = int(cards[i] * cfg.Scale)
		})
	})
	// Time-domain sweep (32M..512M, scaled).
	domains := []float64{32e6, 64e6, 128e6, 256e6, 512e6}
	sweep("time domain size", []string{"32M", "64M", "128M", "256M", "512M"}, func(i int) *model.Collection {
		return syntheticDefault(cfg, func(sc *gen.SyntheticConfig) {
			sc.DomainSize = int64(domains[i] * cfg.Scale)
		})
	})
	// Interval duration skew.
	alphas := []float64{1.01, 1.1, 1.2, 1.4, 1.8}
	sweep("alpha (interval duration)", []string{"1.01", "1.1", "1.2", "1.4", "1.8"}, func(i int) *model.Collection {
		return syntheticDefault(cfg, func(sc *gen.SyntheticConfig) { sc.Alpha = alphas[i] })
	})
	// Interval position spread.
	sigmas := []float64{10_000, 100_000, 1_000_000, 5_000_000, 10_000_000}
	sweep("sigma (interval position)", []string{"10K", "100K", "1M", "5M", "10M"}, func(i int) *model.Collection {
		return syntheticDefault(cfg, func(sc *gen.SyntheticConfig) {
			sc.Sigma = sigmas[i] * cfg.Scale
		})
	})
	// Dictionary size.
	dicts := []float64{10_000, 50_000, 100_000, 500_000, 1_000_000}
	sweep("dictionary size", []string{"10K", "50K", "100K", "500K", "1M"}, func(i int) *model.Collection {
		return syntheticDefault(cfg, func(sc *gen.SyntheticConfig) {
			sc.DictSize = int(dicts[i] * cfg.Scale)
			if sc.DictSize < 16 {
				sc.DictSize = 16
			}
		})
	})
	// Description size.
	descs := []int{5, 10, 50, 100, 500}
	sweep("description size |d|", []string{"5", "10", "50", "100", "500"}, func(i int) *model.Collection {
		return syntheticDefault(cfg, func(sc *gen.SyntheticConfig) { sc.DescSize = descs[i] })
	})
	// Element frequency skew.
	zetas := []float64{1.0, 1.25, 1.5, 1.75, 2.0}
	sweep("element frequency skewness zeta", []string{"1.0", "1.25", "1.5", "1.75", "2.0"}, func(i int) *model.Collection {
		return syntheticDefault(cfg, func(sc *gen.SyntheticConfig) { sc.Zeta = zetas[i] })
	})

	// Query parameters on the default synthetic dataset.
	c := syntheticDefault(cfg, nil)
	indices := map[temporalir.Method]temporalir.Index{}
	for _, m := range methods {
		indices[m], _ = MeasureBuild(m, c, temporalir.Options{})
	}
	throughputSweeps(cfg, Dataset{"synthetic", c}, methods, indices,
		"Figure 12 [synthetic defaults]", fig11Extents, true)
}

// updateBatches are the Table 6/7 batch fractions.
var updateBatches = []float64{0.01, 0.05, 0.10}

// RunTable6 reproduces the insertion-cost table: index 90% of each
// dataset offline, then time inserting batches of 1%, 5% and 10%.
func RunTable6(cfg Config) {
	cfg = cfg.Normalize()
	methods := allUpdateMethods()
	for _, ds := range RealDatasets(cfg) {
		cut := ds.Coll.Len() * 9 / 10
		base := &model.Collection{Objects: ds.Coll.Objects[:cut], DictSize: ds.Coll.DictSize}
		rest := ds.Coll.Objects[cut:]
		t := Table{
			Title:  "Table 6: update time [s] for insertions [" + ds.Name + "]",
			Header: []string{"index", "1%", "5%", "10%"},
		}
		for _, m := range methods {
			row := []string{shortName(m)}
			for _, frac := range updateBatches {
				ix, _ := MeasureBuild(m, base, temporalir.Options{})
				n := int(float64(ds.Coll.Len()) * frac)
				if n > len(rest) {
					n = len(rest)
				}
				secs := timeIt(func() {
					for i := 0; i < n; i++ {
						ix.Insert(rest[i])
					}
				})
				row = append(row, f2(secs))
			}
			t.Add(row...)
		}
		t.Fprint(cfg.Out)
	}
}

// RunTable7 reproduces the deletion-cost table: index each dataset fully,
// then time tombstoning 1%, 5% and 10% of the objects.
func RunTable7(cfg Config) {
	cfg = cfg.Normalize()
	methods := allUpdateMethods()
	for _, ds := range RealDatasets(cfg) {
		t := Table{
			Title:  "Table 7: update time [s] for deletions [" + ds.Name + "]",
			Header: []string{"index", "1%", "5%", "10%"},
		}
		for _, m := range methods {
			row := []string{shortName(m)}
			for _, frac := range updateBatches {
				ix, _ := MeasureBuild(m, ds.Coll, temporalir.Options{})
				n := int(float64(ds.Coll.Len()) * frac)
				secs := timeIt(func() {
					for i := 0; i < n; i++ {
						ix.Delete(ds.Coll.Objects[i])
					}
				})
				row = append(row, f2(secs))
			}
			t.Add(row...)
		}
		t.Fprint(cfg.Out)
	}
}

func allUpdateMethods() []temporalir.Method {
	return []temporalir.Method{
		temporalir.TIFSlicing, temporalir.TIFSharding,
		temporalir.TIFHintBinary, temporalir.TIFHintMerge, temporalir.TIFHintSlicing,
		temporalir.IRHintPerf, temporalir.IRHintSize,
	}
}
