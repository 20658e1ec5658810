package temporalir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/maint"
	"repro/internal/model"
)

// Ranked search scores by temporal overlap alone: after ANY interleaving
// of inserts, deletes and compactions a top-k answer must equal — ids
// and score bits — what a scan of the live objects gives, and an answer
// must not move when objects it does not match come and go.

// rankedTarget is the engine under test, with enough of its inside
// exposed to build the oracle: the generations a query would run
// against (one per store) and the dictionary.
type rankedTarget struct{ *Engine }

func (tg rankedTarget) gens() []*maint.Generation { return tg.set.View() }
func (tg rankedTarget) lookup(terms []string) ([]ElemID, bool) {
	return tg.resolveTermsTraced(nil, terms)
}

// oracleTopK answers a ranked query from first principles over the
// given generations (one per store): the live objects a linear scan
// matches, scored by OverlapScore and ordered (score desc, id asc).
func oracleTopK(gens []*maint.Generation, elems []ElemID, start, end Timestamp, k int) []ScoredResult {
	q := Query{Interval: NewInterval(start, end), Elems: model.NormalizeElems(append([]ElemID(nil), elems...))}
	out := []ScoredResult{}
	for _, g := range gens {
		c := g.Coll()
		for i := range c.Objects {
			if o := &c.Objects[i]; !g.Tombstoned(ObjectID(i)) && q.Matches(o) {
				out = append(out, ScoredResult{ID: g.ExternalID(ObjectID(i)), Score: OverlapScore(o.Interval, q.Interval)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out[:min(k, len(out))]
}

// memtableHas reports whether an object of g's memtable contains e.
func memtableHas(g *maint.Generation, e ElemID) bool {
	objs := g.Coll().Objects
	for i := len(objs) - g.MemLen(); i < len(objs); i++ {
		if objs[i].HasElem(e) {
			return true
		}
	}
	return false
}

// sameScored compares ids and score bits.
func sameScored(a, b []ScoredResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// rankedQuery is one probe of the always-current tests.
type rankedQuery struct {
	start, end Timestamp
	terms      []string
}

// Time layout of the tests: four range shards of 1000 time units. The
// seed corpus starts only in [0, 2000) and the tests insert only below
// 3000, so shard 2 begins empty and fills up, shard 3 stays empty, and
// the narrow probes prune every shard but one.
var rankedProbes = []rankedQuery{
	{0, 3999, []string{"hot"}},
	{0, 3999, []string{"hot", "t1"}},
	{100, 400, []string{"hot"}},
	{1200, 1300, []string{"t2"}},
	{2100, 2900, []string{"hot", "t3"}},
	{0, 3999, []string{"late0"}}, // interned after construction: an id the base index never saw
	{500, 2500, []string{"late1", "hot"}},
}

func newRankedTargets(t *testing.T, rng *rand.Rand) map[string]rankedTarget {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 120; i++ {
		start := Timestamp(rng.Intn(2000))
		b.Add(start, start+Timestamp(rng.Intn(600)), randomRankedTerms(rng, false)...)
	}
	eng, err := b.Build(IRHintPerf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := b.BuildSharded(IRHintPerf, Options{}, ShardedOptions{Shards: 4, Bounds: NewInterval(0, 3999)})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]rankedTarget{"engine": {eng}, "sharded4": {sh}}
}

func randomRankedTerms(rng *rand.Rand, late bool) []string {
	terms := []string{fmt.Sprintf("t%d", rng.Intn(5))}
	if rng.Intn(4) > 0 {
		terms = append(terms, "hot")
	}
	if late && rng.Intn(3) == 0 {
		terms = append(terms, fmt.Sprintf("late%d", rng.Intn(2)))
	}
	return terms
}

func checkRankedProbes(t *testing.T, when string, tg rankedTarget) {
	t.Helper()
	gens := tg.gens()
	for _, p := range rankedProbes {
		got, _ := tg.SearchTopKCtx(context.Background(), p.start, p.end, 5, p.terms...)
		var want []ScoredResult
		if elems, ok := tg.lookup(p.terms); ok {
			want = oracleTopK(gens, elems, p.start, p.end, 5)
		}
		if !sameScored(got, want) {
			t.Fatalf("%s: top-5 of %v in [%d, %d]:\n got  %v\n want %v", when, p.terms, p.start, p.end, got, want)
		}
	}
}

// TestRankedAlwaysCurrent is the seeded model test: a random
// interleaving of inserts, deletes and compactions, with every probe
// compared against the oracle after every single step.
func TestRankedAlwaysCurrent(t *testing.T) {
	for name, tg := range newRankedTargets(t, rand.New(rand.NewSource(1701))) {
		tg := tg
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1702))
			live := make([]ObjectID, 120)
			for i := range live {
				live[i] = ObjectID(i)
			}
			checkRankedProbes(t, "seed corpus", tg)
			// late0 is interned by an insert, so until the first compaction
			// after that only memtables hold it.
			sawTombstone, sawLateInMemtable := false, false
			for step := 0; step < 400; step++ {
				var what string
				switch r := rng.Intn(100); {
				case r < 55:
					start := Timestamp(rng.Intn(3000))
					id := tg.Insert(start, start+Timestamp(rng.Intn(600)), randomRankedTerms(rng, true)...)
					live = append(live, id)
					what = fmt.Sprintf("insert %d", id)
				case r < 93 && len(live) > 0:
					i := rng.Intn(len(live))
					if err := tg.Delete(live[i]); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					what = fmt.Sprintf("delete %d", live[i])
					live = append(live[:i], live[i+1:]...)
				default:
					if _, err := tg.Compact(context.Background()); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					what = "compact"
				}
				for _, g := range tg.gens() {
					sawTombstone = sawTombstone || g.TombstoneCount() > 0
					if late, ok := tg.lookup([]string{"late0"}); ok && memtableHas(g, late[0]) {
						sawLateInMemtable = true
					}
				}
				checkRankedProbes(t, fmt.Sprintf("step %d (%s)", step, what), tg)
			}
			if !sawTombstone || !sawLateInMemtable {
				t.Fatalf("the interleaving never held an uncompacted tombstone (%v) or a memtable-only element (%v)", sawTombstone, sawLateInMemtable)
			}
			if tg.NumShards() == 4 {
				st := tg.ShardStats()
				if st[2].Objects == 0 || st[3].Objects != 0 {
					t.Fatalf("shard layout drifted: shard 2 holds %d objects (want some), shard 3 %d (want none)", st[2].Objects, st[3].Objects)
				}
				if tg.CoordinatorStats().ShardsPruned == 0 {
					t.Fatal("no probe was pruned by extent")
				}
			}
		})
	}
}

// TestRankedSnapshotConsistencyUnderCompaction runs ranked queries
// while one writer inserts, deletes and compacts in the foreground. The
// writer is the only mutator, so it can record every generation every
// store ever published; each answer must then equal the oracle's for
// some generation (per store) that was current during the call. Every
// insert carries the probed term, so generations differ in candidates,
// and an answer read from a stale or a mixed view matches no window.
func TestRankedSnapshotConsistencyUnderCompaction(t *testing.T) {
	for name, tg := range newRankedTargets(t, rand.New(rand.NewSource(1703))) {
		tg := tg
		t.Run(name, func(t *testing.T) {
			probes := rankedProbes[:3]
			elems := make([][]ElemID, len(probes))
			for i, p := range probes {
				elems[i], _ = tg.lookup(p.terms)
			}

			// history[i][e] is store i's generation with epoch e.
			history := make([]map[uint64]*maint.Generation, len(tg.gens()))
			record := func() {
				for i, g := range tg.gens() {
					if history[i] == nil {
						history[i] = map[uint64]*maint.Generation{}
					} else if history[i][g.Epoch()] == nil && history[i][g.Epoch()-1] == nil {
						t.Errorf("store %d reached epoch %d with epoch %d unrecorded", i, g.Epoch(), g.Epoch()-1)
					}
					history[i][g.Epoch()] = g
				}
			}
			record()

			type sample struct {
				probe  int
				lo, hi []uint64
				got    []ScoredResult
			}
			epochs := func() []uint64 {
				gs := tg.gens()
				out := make([]uint64, len(gs))
				for i, g := range gs {
					out[i] = g.Epoch()
				}
				return out
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var answered atomic.Int64
			samples := make([][]sample, 3)
			for r := range samples {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						p := (n + r) % len(probes)
						s := sample{probe: p, lo: epochs()}
						s.got, _ = tg.SearchTopKCtx(context.Background(), probes[p].start, probes[p].end, 5, probes[p].terms...)
						s.hi = epochs()
						if len(samples[r]) < 400 {
							samples[r] = append(samples[r], s)
						}
						answered.Add(1)
					}
				}()
			}

			rng := rand.New(rand.NewSource(1704))
			var live []ObjectID
			for step := 0; step < 240; step++ {
				// Every write lands beside at least one query in flight or
				// just answered, however the scheduler treats the readers.
				for seen := answered.Load(); answered.Load() == seen; {
					runtime.Gosched()
				}
				switch {
				case step%60 == 59:
					if _, err := tg.Compact(context.Background()); err != nil {
						t.Errorf("compact: %v", err)
					}
				case step%4 == 3 && len(live) > 0:
					i := rng.Intn(len(live))
					if err := tg.Delete(live[i]); err != nil {
						t.Errorf("delete: %v", err)
					}
					live = append(live[:i], live[i+1:]...)
				default:
					start := Timestamp(rng.Intn(3000))
					live = append(live, tg.Insert(start, start+Timestamp(rng.Intn(900)), "hot", fmt.Sprintf("t%d", rng.Intn(5))))
				}
				record()
			}
			close(stop)
			wg.Wait()

			checked := 0
			for _, rs := range samples {
				for _, s := range rs {
					// Walk the product of the per-store epoch windows.
					pick := make([]*maint.Generation, len(history))
					var match func(i int) bool
					match = func(i int) bool {
						if i == len(history) {
							return sameScored(s.got, oracleTopK(pick, elems[s.probe], probes[s.probe].start, probes[s.probe].end, 5))
						}
						for e := s.lo[i]; e <= s.hi[i]; e++ {
							if pick[i] = history[i][e]; pick[i] == nil {
								t.Fatalf("store %d epoch %d was observed by a reader but never recorded", i, e)
							}
							if match(i + 1) {
								return true
							}
						}
						return false
					}
					if !match(0) {
						t.Fatalf("top-5 of %v answered during epochs %v..%v equals the oracle for no generation in that window: %v",
							probes[s.probe].terms, s.lo, s.hi, s.got)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no ranked query completed beside the writer")
			}
		})
	}
}

// TestRankedAnswersReproducible pins what overlap-only scoring buys: a
// ranked answer read earlier is read again, ids and score bits, after
// the corpus grows by objects the query does not match — ones that share
// none of its terms inside its interval, and ones that carry its terms
// outside it — both while they sit in the memtable and once compaction
// has folded them (and dropped a deleted unrelated object) into the base.
func TestRankedAnswersReproducible(t *testing.T) {
	probes := []rankedQuery{
		{200, 700, []string{"hot"}},
		{0, 999, []string{"hot", "t1"}},
		{450, 460, []string{"t2"}},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1705))
			b := NewBuilder()
			for i := 0; i < 80; i++ {
				start := Timestamp(rng.Intn(900))
				b.Add(start, start+Timestamp(rng.Intn(300)), randomRankedTerms(rng, false)...)
			}
			e, err := b.BuildSharded(IRHintPerf, Options{}, ShardedOptions{Shards: shards, Bounds: NewInterval(0, 3999)})
			if err != nil {
				t.Fatal(err)
			}
			ask := func() [][]ScoredResult {
				out := make([][]ScoredResult, len(probes))
				for i, p := range probes {
					if out[i], err = e.SearchTopKCtx(context.Background(), p.start, p.end, 5, p.terms...); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			before := ask()
			for i, r := range before {
				if len(r) == 0 {
					t.Fatalf("probe %d matches nothing", i)
				}
			}
			check := func(when string) {
				t.Helper()
				for i, got := range ask() {
					if !sameScored(got, before[i]) {
						t.Fatalf("%s: top-5 of %v in [%d, %d] moved:\n now    %v\n before %v",
							when, probes[i].terms, probes[i].start, probes[i].end, got, before[i])
					}
				}
			}
			var unrelated []ObjectID
			for i := 0; i < 40; i++ {
				start := Timestamp(rng.Intn(900))
				unrelated = append(unrelated, e.Insert(start, start+Timestamp(rng.Intn(300)), "cold", fmt.Sprintf("u%d", i%3)))
				start = 2000 + Timestamp(rng.Intn(1500))
				e.Insert(start, start+Timestamp(rng.Intn(300)), "hot", "t1", "t2")
			}
			check("unrelated objects in the memtable")
			if err := e.Delete(unrelated[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			check("after compaction")
		})
	}
}
