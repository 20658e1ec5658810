package temporalir_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	temporalir "repro"
)

// instantPairs is how many (early, late) insert pairs
// TestMultiStoreReadsOneInstant publishes before its reads stop, and
// instantCompactEvery how often its writer compacts in between, which
// keeps the memtables, and so every read, short.
const (
	instantPairs        = 1500
	instantCompactEvery = 250
)

// pairWriter inserts "t" at [10, 20] and then at [90, 95], one pair at
// a time, so the early object of every pair has an even id and the late
// one the next odd id.
type pairWriter struct {
	mu    sync.Mutex
	e     *temporalir.Engine
	pairs int
}

// insert publishes one pair and returns how many there are.
func (w *pairWriter) insert() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.e.Insert(10, 20, "t")
	w.e.Insert(90, 95, "t")
	w.pairs++
	return w.pairs
}

// writingCtx is a context whose every Err call first inserts one pair:
// a read that checks its context between loading one store and the
// next sees a pair's late object without its early one.
type writingCtx struct {
	context.Context
	w *pairWriter
}

func (c writingCtx) Err() error {
	c.w.insert()
	return c.Context.Err()
}

// checkInstant reports whether early objects (even ids) and late ones
// (odd ids) counted by one read could come from one instant of an engine
// whose only writer inserts an early object and then a late one: the
// early count is the late count or one more.
func checkInstant(early, late int) error {
	if d := early - late; d != 0 && d != 1 {
		return fmt.Errorf("%d early and %d late objects: no instant of the engine held that", early, late)
	}
	return nil
}

// checkInstantIDs classifies ids by parity and checks them.
func checkInstantIDs(ids []temporalir.ObjectID) error {
	early := 0
	for _, id := range ids {
		if id%2 == 0 {
			early++
		}
	}
	return checkInstant(early, len(ids)-early)
}

// TestMultiStoreReadsOneInstant pins that every read of an engine over
// several stores reflects one instant of all of them. Over time-range
// stores of [0, 99], a writer inserts "t" at [10, 20] (the first store)
// and then at [90, 95] (the last store), pair after pair, and compacts
// every few hundred pairs; readers meanwhile run Search, SearchCtx,
// SearchTopKCtx, TimelineCtx, both batch spellings and a Save →
// LoadEngine round trip.
// A read that loaded the stores at different times sees more late
// objects than early ones (or two more early ones): a state the engine
// never had. The reads that take a context take a writingCtx, and the
// pool runs one store at a time, so a read that loaded each store as it
// ran it would see a pair land between two of its loads every time.
func TestMultiStoreReadsOneInstant(t *testing.T) {
	for _, width := range []int{2, 4} {
		t.Run(fmt.Sprintf("stores%d", width), func(t *testing.T) {
			e, err := temporalir.NewSharded(temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{
				Shards: width, Partition: temporalir.PartitionTimeRange, Bounds: temporalir.NewInterval(0, 99),
			})
			if err != nil {
				t.Fatal(err)
			}
			e.SetParallelism(1)
			w := &pairWriter{e: e}
			w.insert() // intern "t" before the first read
			ctx := writingCtx{Context: context.Background(), w: w}

			done := make(chan struct{})
			go func() {
				defer close(done)
				for next := instantCompactEvery; ; runtime.Gosched() {
					n := w.insert()
					if n >= instantPairs {
						return
					}
					if n >= next {
						next = n + instantCompactEvery
						if _, err := e.Compact(context.Background()); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()

			reads := map[string]func() error{
				"Search": func() error {
					return checkInstantIDs(e.Search(0, 99, "t"))
				},
				"SearchCtx": func() error {
					ids, err := e.SearchCtx(ctx, 0, 99, "t")
					if err != nil {
						return err
					}
					return checkInstantIDs(ids)
				},
				"SearchTopKCtx": func() error {
					res, err := e.SearchTopKCtx(ctx, 0, 99, 1<<20, "t")
					if err != nil {
						return err
					}
					ids := make([]temporalir.ObjectID, len(res))
					for i, r := range res {
						ids[i] = r.ID
					}
					return checkInstantIDs(ids)
				},
				"TimelineCtx": func() error {
					hist, err := e.TimelineCtx(ctx, 0, 99, 2, "t")
					if err != nil {
						return err
					}
					return checkInstant(hist[0].Count, hist[1].Count)
				},
				"SearchBatchCtx": func() error {
					q := temporalir.Query{Interval: temporalir.NewInterval(0, 99), Elems: []temporalir.ElemID{0}} // "t", the only term
					rows := e.SearchBatchCtx(ctx, []temporalir.Query{q, q, q})
					for i, r := range rows {
						if r.Err != nil {
							return r.Err
						}
						if !reflect.DeepEqual(r.IDs, rows[0].IDs) {
							return fmt.Errorf("row %d holds %d ids, row 0 %d: one batch saw two instants", i, len(r.IDs), len(rows[0].IDs))
						}
					}
					return checkInstantIDs(rows[0].IDs)
				},
				"SearchTermsBatchCtx": func() error {
					rows := e.SearchTermsBatchCtx(ctx, 0, 99, [][]string{{"t"}, {"t"}, {"t"}})
					for i, r := range rows {
						if r.Err != nil {
							return r.Err
						}
						if !reflect.DeepEqual(r.IDs, rows[0].IDs) {
							return fmt.Errorf("row %d holds %d ids, row 0 %d: one batch saw two instants", i, len(r.IDs), len(rows[0].IDs))
						}
					}
					return checkInstantIDs(rows[0].IDs)
				},
				"Save": func() error {
					var buf bytes.Buffer
					if err := e.Save(&buf); err != nil {
						return err
					}
					loaded, err := temporalir.LoadEngine(&buf, temporalir.TIF, temporalir.Options{})
					if err != nil {
						return err
					}
					return checkInstantIDs(loaded.Search(0, 99, "t"))
				},
			}
			var mu sync.Mutex
			torn := map[string]int{}
			count := map[string]int{}
			var wg sync.WaitGroup
			for name, read := range reads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						err := read()
						mu.Lock()
						count[name]++
						if err != nil {
							if torn[name] == 0 {
								t.Errorf("%s: %v", name, err)
							}
							torn[name]++
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			for name := range reads {
				if torn[name] > 0 {
					t.Errorf("%s: %d of %d reads matched no instant of the engine", name, torn[name], count[name])
				}
			}
			if got := e.Len(); got != 2*w.pairs {
				t.Fatalf("engine holds %d objects, want %d", got, 2*w.pairs)
			}
		})
	}
}

// TestEmptiedStoreIsPruned deletes every object of one store and
// compacts: the store then holds no extent, so a query inside its slot
// plans no store at all, and every answer is what it was before the
// compaction.
func TestEmptiedStoreIsPruned(t *testing.T) {
	b := temporalir.NewBuilder()
	var slot1 []temporalir.ObjectID
	for i := 0; i < 400; i++ {
		start := temporalir.Timestamp(i%4*100 + i/4%90)
		id := b.Add(start, start+5, fmt.Sprintf("t%d", i%3), "all")
		if i%4 == 1 {
			slot1 = append(slot1, id)
		}
	}
	e, err := b.BuildSharded(temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{
		Shards: 4, Partition: temporalir.PartitionTimeRange, Bounds: temporalir.NewInterval(0, 399),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range slot1 {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	queries := []temporalir.Interval{
		temporalir.NewInterval(0, 399), temporalir.NewInterval(50, 150), temporalir.NewInterval(100, 199),
		temporalir.NewInterval(180, 260), temporalir.NewInterval(300, 310),
	}
	answers := func() [][]temporalir.ObjectID {
		var out [][]temporalir.ObjectID
		for _, iv := range queries {
			for _, term := range []string{"t0", "t1", "all"} {
				out = append(out, e.Search(iv.Start, iv.End, term))
			}
		}
		return out
	}
	before := answers()
	if _, rep, err := e.SearchShardsCtx(ctx, 100, 199, "all"); err != nil || rep.Planned != 1 {
		t.Fatalf("before compaction: report %+v, err %v; want the tombstoned store planned", rep, err)
	}

	if _, err := e.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := e.ShardStats()[1]; st.HasExtent || st.Objects != 0 {
		t.Fatalf("emptied store after compaction: %+v, want no objects and no extent", st)
	}
	for i, st := range e.ShardStats() {
		if i != 1 && !st.HasExtent {
			t.Fatalf("store %d lost its extent: %+v", i, st)
		}
	}
	ids, rep, err := e.SearchShardsCtx(ctx, 100, 199, "all")
	if err != nil || len(ids) != 0 || rep.Planned != 0 || rep.Pruned != 4 {
		t.Fatalf("query inside the emptied slot: %d ids, report %+v, err %v; want every store pruned", len(ids), rep, err)
	}
	if after := answers(); !reflect.DeepEqual(after, before) {
		t.Fatal("answers changed across the compaction that emptied a store")
	}
}
