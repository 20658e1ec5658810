// Command irbench reproduces the paper's experiments. Each table and
// figure of the evaluation section has a named driver:
//
//	irbench -list
//	irbench -exp table5 -scale 0.01
//	irbench -exp all -scale 0.05 -queries 2000
//
// Scale 1.0 reproduces the paper's dataset sizes (hours of runtime);
// the default keeps the full suite laptop-sized while preserving the
// result shapes EXPERIMENTS.md documents.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		scale   = flag.Float64("scale", 0.01, "dataset scale in (0, 1]")
		queries = flag.Int("queries", 1000, "queries per measurement point")
		seed    = flag.Int64("seed", 42, "generator seed")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, NumQueries: *queries, Seed: *seed, Out: os.Stdout}

	run := func(e bench.Experiment) {
		fmt.Printf("== %s: %s (scale=%g, queries=%d) ==\n", e.Name, e.Title, *scale, *queries)
		start := time.Now()
		e.Run(cfg)
		fmt.Printf("-- %s done in %.1fs --\n\n", e.Name, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "irbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
