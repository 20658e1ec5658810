package temporalir_test

import (
	"context"
	"fmt"

	temporalir "repro"
)

// The paper's running example (Figure 1): eight objects, a query interval
// of [4, 6] and the element set {a, c} — answered by o2, o4 and o7.
func Example() {
	b := temporalir.NewBuilder()
	b.Add(10, 15, "a", "b", "c") // o1
	b.Add(2, 5, "a", "c")        // o2
	b.Add(0, 2, "b")             // o3
	b.Add(0, 15, "a", "b", "c")  // o4
	b.Add(3, 7, "b", "c")        // o5
	b.Add(2, 11, "c")            // o6
	b.Add(4, 14, "a", "c")       // o7
	b.Add(2, 3, "c")             // o8

	engine, _ := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	fmt.Println(engine.Search(4, 6, "a", "c"))
	// Output: [1 3 6]
}

// Working with element ids directly, without the string layer.
func ExampleNewIndex() {
	var c temporalir.Collection
	c.AppendObject(temporalir.Interval{Start: 0, End: 9}, []temporalir.ElemID{1, 2})
	c.AppendObject(temporalir.Interval{Start: 5, End: 20}, []temporalir.ElemID{2})

	ix, _ := temporalir.NewIndex(temporalir.TIFSlicing, &c, temporalir.Options{Slices: 4})
	ids := ix.Query(temporalir.Query{
		Interval: temporalir.Interval{Start: 7, End: 8},
		Elems:    []temporalir.ElemID{2},
	})
	temporalir.SortIDs(ids)
	fmt.Println(ids)
	// Output: [0 1]
}

// Every index method answers identically; they differ in cost profiles.
func ExampleMethods() {
	var c temporalir.Collection
	c.AppendObject(temporalir.Interval{Start: 0, End: 10}, []temporalir.ElemID{0})
	q := temporalir.Query{Interval: temporalir.Interval{Start: 5, End: 6}, Elems: []temporalir.ElemID{0}}

	agree := true
	for _, m := range temporalir.Methods() {
		ix, _ := temporalir.NewIndex(m, &c, temporalir.Options{})
		if len(ix.Query(q)) != 1 {
			agree = false
		}
	}
	fmt.Println(agree)
	// Output: true
}

// Temporal join: overlapping lifespans sharing elements.
func ExampleJoin() {
	var sessions, promos temporalir.Collection
	sessions.AppendObject(temporalir.Interval{Start: 0, End: 10}, []temporalir.ElemID{7})
	sessions.AppendObject(temporalir.Interval{Start: 100, End: 110}, []temporalir.ElemID{7})
	promos.AppendObject(temporalir.Interval{Start: 5, End: 15}, []temporalir.ElemID{7, 9})

	pairs := temporalir.Join(&sessions, &promos, 1)
	fmt.Println(pairs)
	// Output: [{0 0}]
}

// Batch evaluation fans queries across cores, against one snapshot of
// every store.
func ExampleEngine_SearchBatchCtx() {
	var c temporalir.Collection
	c.AppendObject(temporalir.Interval{Start: 0, End: 100}, []temporalir.ElemID{0})
	engine, _ := temporalir.EngineFromCollection(&c, temporalir.IRHintPerf, temporalir.Options{})

	queries := []temporalir.Query{
		{Interval: temporalir.Interval{Start: 10, End: 20}, Elems: []temporalir.ElemID{0}},
		{Interval: temporalir.Interval{Start: 200, End: 300}, Elems: []temporalir.ElemID{0}},
	}
	results := engine.SearchBatchCtx(context.Background(), queries)
	fmt.Println(len(results[0].IDs), len(results[1].IDs))
	// Output: 1 0
}

// Ranked search returns the k most relevant matches.
func ExampleEngine_SearchTopKCtx() {
	b := temporalir.NewBuilder()
	b.Add(0, 100, "go", "generics")
	b.Add(95, 200, "go", "generics")
	b.Add(0, 100, "go")

	engine, _ := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	top, _ := engine.SearchTopKCtx(context.Background(), 0, 100, 1, "go", "generics")
	fmt.Println(top[0].ID)
	// Output: 0
}
