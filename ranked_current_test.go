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
	"repro/internal/rank"
)

// Ranked search reads always-current statistics: there is no scorer to
// refresh, so after ANY interleaving of inserts, deletes and compactions
// a top-k answer must equal — ids and score bits — what a scorer built
// from scratch over the stored collection gives. The tests below never
// call RefreshScorer.

// rankedTarget is the engine under test, with enough of its inside
// exposed to build the oracle: the generation(s) a query would run
// against and the dictionary.
type rankedTarget interface {
	Insert(start, end Timestamp, terms ...string) ObjectID
	Delete(id ObjectID) error
	Compact(ctx context.Context) (CompactionStats, error)
	SearchTopK(start, end Timestamp, k int, terms ...string) []ScoredResult
	gens() []*maint.Generation
	resolve(terms []string) ([]ElemID, bool)
}

type engineTarget struct{ *Engine }

func (e engineTarget) gens() []*maint.Generation { return []*maint.Generation{e.snapshot()} }
func (e engineTarget) resolve(terms []string) ([]ElemID, bool) {
	return e.resolveTermsTraced(nil, terms)
}

type shardedTarget struct{ *Sharded }

func (s shardedTarget) gens() []*maint.Generation {
	out := make([]*maint.Generation, len(s.stores))
	for i := range out {
		out[i] = s.snapshotOne(i)
	}
	return out
}
func (s shardedTarget) resolve(terms []string) ([]ElemID, bool) {
	return s.resolveTermsTraced(nil, terms)
}

// hitList is a containment "index" over precomputed candidates.
type hitList []ObjectID

func (h hitList) Query(Query) []ObjectID { return h }

// oracleTopK answers a ranked query from first principles over the
// given generations (one per store). The corpus rank.NewScorer weighs is
// every stored object of every generation — tombstoned ones included,
// until a compaction drops them — in global id order, so ties break as
// the engines break them; the candidates are the live objects a linear
// scan matches.
func oracleTopK(gens []*maint.Generation, elems []ElemID, start, end Timestamp, k int) []ScoredResult {
	type stored struct {
		ext  ObjectID
		obj  Object
		live bool
	}
	var all []stored
	corpus := &Collection{}
	for _, g := range gens {
		c := g.Coll()
		corpus.DictSize = max(corpus.DictSize, c.DictSize)
		for i := range c.Objects {
			all = append(all, stored{g.ExternalID(ObjectID(i)), c.Objects[i], !g.Tombstoned(ObjectID(i))})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ext < all[j].ext })
	q := Query{Interval: NewInterval(start, end), Elems: model.NormalizeElems(append([]ElemID(nil), elems...))}
	var hits hitList
	for i := range all {
		o := all[i].obj
		o.ID = ObjectID(i)
		corpus.Objects = append(corpus.Objects, o)
		if all[i].live && q.Matches(&o) {
			hits = append(hits, o.ID)
		}
	}
	res := rank.TopK(hits, corpus, rank.NewScorer(corpus, rank.ScorerConfig{}), q, k)
	out := make([]ScoredResult, len(res))
	for i, r := range res {
		out[i] = ScoredResult{ID: all[r.ID].ext, Score: r.Score}
	}
	return out
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
// the narrow probes prune every shard but one — whose siblings' objects
// still count in the statistics.
var rankedProbes = []rankedQuery{
	{0, 3999, []string{"hot"}},
	{0, 3999, []string{"hot", "t1"}},
	{100, 400, []string{"hot"}},
	{1200, 1300, []string{"t2"}},
	{2100, 2900, []string{"hot", "t3"}},
	{0, 3999, []string{"late0"}}, // interned after construction: an id the base statistics never saw
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
	return map[string]rankedTarget{"engine": engineTarget{eng}, "sharded4": shardedTarget{sh}}
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
		got := tg.SearchTopK(p.start, p.end, 5, p.terms...)
		var want []ScoredResult
		if elems, ok := tg.resolve(p.terms); ok {
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
			// after that its id lies past the end of the base statistics.
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
					if late, ok := tg.resolve([]string{"late0"}); ok && g.MemLen() > 0 && g.DocFreq(late[0]) > 0 {
						sawLateInMemtable = true
					}
				}
				checkRankedProbes(t, fmt.Sprintf("step %d (%s)", step, what), tg)
			}
			if !sawTombstone || !sawLateInMemtable {
				t.Fatalf("the interleaving never held an uncompacted tombstone (%v) or a memtable-only element (%v)", sawTombstone, sawLateInMemtable)
			}
			if sh, ok := tg.(shardedTarget); ok {
				st := sh.ShardStats()
				if st[2].Objects == 0 || st[3].Objects != 0 {
					t.Fatalf("shard layout drifted: shard 2 holds %d objects (want some), shard 3 %d (want none)", st[2].Objects, st[3].Objects)
				}
				if sh.CoordinatorStats().ShardsPruned == 0 {
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
// some generation (per store) that was current during the call. For the
// sharded engine this also proves statistics and candidates come from
// the same per-shard snapshots: every insert carries the probed term, so
// every generation changes the weights, and a score computed from one
// snapshot over candidates drawn from another matches no combination.
func TestRankedSnapshotConsistencyUnderCompaction(t *testing.T) {
	for name, tg := range newRankedTargets(t, rand.New(rand.NewSource(1703))) {
		tg := tg
		t.Run(name, func(t *testing.T) {
			probes := rankedProbes[:3]
			elems := make([][]ElemID, len(probes))
			for i, p := range probes {
				elems[i], _ = tg.resolve(p.terms)
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
						s.got = tg.SearchTopK(probes[p].start, probes[p].end, 5, probes[p].terms...)
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
