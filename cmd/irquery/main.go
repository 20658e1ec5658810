// Command irquery loads a dataset (a .tirc file produced by irgen),
// builds the selected index and evaluates time-travel IR queries.
// Queries come from the command line or, with -i, one per stdin line, in
// the form:
//
//	<start> <end> <elem>[,<elem>...]
//
// e.g. `irquery -data syn.tirc -index irhint/perf -i` then
// `1000 5000 17,42`. The output lists matching object ids.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	temporalir "repro"
	"repro/internal/encoding"
	"repro/internal/model"
)

func main() {
	var (
		data    = flag.String("data", "", "dataset file written by irgen (required)")
		index   = flag.String("index", string(temporalir.IRHintPerf), "index method")
		m       = flag.Int("m", 0, "HINT bits (0 = tuned default / cost model)")
		slices  = flag.Int("slices", 0, "slice count for the sliced methods (0 = default)")
		interq  = flag.Bool("i", false, "read queries from stdin")
		explain = flag.Bool("v", false, "print per-query timing")
	)
	flag.Parse()

	if *data == "" {
		fmt.Fprintln(os.Stderr, "irquery: -data is required")
		os.Exit(2)
	}
	f, err := os.Open(*data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irquery: %v\n", err)
		os.Exit(1)
	}
	coll, err := encoding.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "irquery: reading %s: %v\n", *data, err)
		os.Exit(1)
	}

	start := time.Now()
	ix, err := temporalir.NewIndex(temporalir.Method(*index), coll,
		temporalir.Options{M: *m, Slices: *slices})
	if err != nil {
		fmt.Fprintf(os.Stderr, "irquery: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("loaded %d objects, built %s in %.2fs (%.1f MB)\n",
		coll.Len(), *index, time.Since(start).Seconds(), float64(ix.SizeBytes())/(1<<20))

	runOne := func(line string) {
		q, err := parseQuery(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irquery: %v\n", err)
			return
		}
		t0 := time.Now()
		ids := ix.Query(q)
		elapsed := time.Since(t0)
		temporalir.SortIDs(ids)
		fmt.Printf("%d results: %v\n", len(ids), preview(ids, 20))
		if *explain {
			fmt.Printf("  in %v\n", elapsed)
		}
	}

	for _, arg := range flag.Args() {
		runOne(arg)
	}
	if *interq {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			runOne(line)
		}
	}
}

// parseQuery parses "<start> <end> <elem>[,<elem>...]".
func parseQuery(line string) (model.Query, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return model.Query{}, fmt.Errorf("want '<start> <end> <elem>[,<elem>...]', got %q", line)
	}
	start, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return model.Query{}, fmt.Errorf("bad start %q", fields[0])
	}
	end, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return model.Query{}, fmt.Errorf("bad end %q", fields[1])
	}
	var elems []model.ElemID
	for _, tok := range strings.Split(fields[2], ",") {
		e, err := strconv.ParseUint(tok, 10, 32)
		if err != nil {
			return model.Query{}, fmt.Errorf("bad element %q", tok)
		}
		elems = append(elems, model.ElemID(e))
	}
	return model.Query{
		Interval: model.Canon(start, end),
		Elems:    model.NormalizeElems(elems),
	}, nil
}

func preview(ids []model.ObjectID, n int) []model.ObjectID {
	if len(ids) <= n {
		return ids
	}
	return ids[:n]
}
