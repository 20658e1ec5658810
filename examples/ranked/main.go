// Ranked archive search: the relevance extension (the paper's Section 7
// future work). Instead of returning every matching revision, SearchTopKCtx
// scores each match by the share of the query interval its lifespan
// covers and returns only the k best — the "most relevant objects
// overlapping the query time interval".
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	temporalir "repro"
)

const day = temporalir.Timestamp(86400)

func main() {
	rng := rand.New(rand.NewSource(11))
	b := temporalir.NewBuilder()

	common := []string{"report", "update", "summary", "notes"}
	niche := []string{"eclipse", "solstice", "aurora", "comet", "meteor"}

	// A year of documents; most carry only common terms, a few also a
	// niche astronomy term. Lifespans vary from a day to a quarter.
	for i := 0; i < 8000; i++ {
		start := temporalir.Timestamp(rng.Int63n(int64(365 * day)))
		life := day + temporalir.Timestamp(rng.Int63n(int64(90*day)))
		terms := []string{common[rng.Intn(len(common))], common[rng.Intn(len(common))]}
		if rng.Intn(10) == 0 {
			terms = append(terms, niche[rng.Intn(len(niche))])
		}
		b.Add(start, start+life, terms...)
	}

	engine, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// All March documents mentioning "report": potentially hundreds.
	march := 59 * day
	all := engine.Search(march, march+31*day, "report")
	fmt.Printf("March documents mentioning 'report': %d\n", len(all))

	// Top-5 by relevance: the documents alive for most of March float to
	// the top.
	ctx := context.Background()
	top, err := engine.SearchTopKCtx(ctx, march, march+31*day, 5, "report", "aurora")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top %d for report+aurora:\n", len(top))
	for rank, r := range top {
		iv, terms, _ := engine.Object(r.ID)
		fmt.Printf("  #%d doc %d  score %.3f  alive days %d..%d  terms %v\n",
			rank+1, r.ID, r.Score, iv.Start/86400, iv.End/86400, terms)
	}
}
