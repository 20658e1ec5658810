package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"repro/internal/aggregate"
	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rank"
)

type opKind uint8

const (
	opSearch opKind = iota
	opTopK
	opTimeline
	opBatch
	opInsert
	opDelete
)

func (k opKind) isRead() bool { return k <= opBatch }

// op is one operation of a workload list, in every spelling a boundary
// needs: element ids for the index and the oracle, terms for the
// engine, pre-encoded request bytes for the socket.
type op struct {
	kind opKind
	iv   model.Interval
	// rows holds one element set for search/top-k/timeline/insert and
	// batchRows of them for a batch.
	rows  [][]model.ElemID
	terms [][]string
	req   []byte
	// slot indexes the cycle's insert list: the object an insert adds,
	// or the previous cycle's insert a delete removes.
	slot int
}

func termsOf(elems []model.ElemID) []string {
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = "e" + strconv.Itoa(int(e))
	}
	return out
}

func newOp(kind opKind, iv model.Interval, rows ...[]model.ElemID) op {
	o := op{kind: kind, iv: iv, rows: rows, terms: make([][]string, len(rows))}
	for i, r := range rows {
		o.terms[i] = termsOf(r)
	}
	o.req = encodeRequest(&o)
	return o
}

// encodeRequest renders the HTTP/1.1 request for o. Deletes are encoded
// later, once the target id is known (encodeDelete).
func encodeRequest(o *op) []byte {
	var b bytes.Buffer
	query := func(path string, extra string) {
		fmt.Fprintf(&b, "GET %s?start=%d&end=%d&q=", path, o.iv.Start, o.iv.End)
		for i, t := range o.terms[0] {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(t)
		}
		b.WriteString(extra)
		b.WriteString(" HTTP/1.1\r\nHost: bench\r\n\r\n")
	}
	post := func(path string, body []byte) {
		fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
		b.Write(body)
	}
	switch o.kind {
	case opSearch:
		query("/search", "")
	case opTopK:
		query("/search", "&k="+strconv.Itoa(topK))
	case opTimeline:
		query("/timeline", "&buckets="+strconv.Itoa(tlBuckets))
	case opBatch:
		var body bytes.Buffer
		fmt.Fprintf(&body, `{"start":%d,"end":%d,"queries":[`, o.iv.Start, o.iv.End)
		for i, row := range o.terms {
			if i > 0 {
				body.WriteByte(',')
			}
			body.WriteByte('"')
			for j, t := range row {
				if j > 0 {
					body.WriteByte(' ')
				}
				body.WriteString(t)
			}
			body.WriteByte('"')
		}
		body.WriteString("]}")
		post("/search/batch", body.Bytes())
	case opInsert:
		var body bytes.Buffer
		fmt.Fprintf(&body, `{"start":%d,"end":%d,"terms":[`, o.iv.Start, o.iv.End)
		for i, t := range o.terms[0] {
			if i > 0 {
				body.WriteByte(',')
			}
			body.WriteString(`"` + t + `"`)
		}
		body.WriteString("]}")
		post("/objects", body.Bytes())
	case opDelete:
	}
	return b.Bytes()
}

func encodeDelete(id model.ObjectID) []byte {
	return []byte("DELETE /objects/" + strconv.FormatUint(uint64(id), 10) + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

const compactRequest = "POST /admin/compact HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"

// systematic picks n of pool candidates by systematic sampling on a
// key: the candidates are ordered by key and the middle one of every run
// of pool/n neighbours is kept. The picks come back in key order. A
// plain draw of n gives every seed its own share of extreme keys; a
// systematic draw gives every seed the whole pool's key profile, while
// what is picked still comes from the seed.
func systematic(n, pool int, key func(i int) float64) []int {
	order := make([]int, pool)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
	picked := make([]int, n)
	if n > 0 {
		k := pool / n
		for i := range picked {
			picked[i] = order[i*k+k/2]
		}
	}
	return picked
}

// pickQueries thins a seeded candidate pool to lists×n queries,
// systematically on each query's expected result size — objects alive
// in its interval, times the document-frequency share of each of its
// elements (gen.Synthetic draws elements independently of time and of
// each other) — and deals them out so that every list gets every
// lists-th pick, each list in generation order. Query cost is
// heavy-tailed in exactly that size (one query in a few hundred of the
// mixed pool matches nine objects in ten), so without this, across ten
// seeds, qps moved by 8% and the p99 by far more.
func pickQueries(base *model.Collection, pool []model.Query, n, lists int, maxShare float64) [][]model.Query {
	starts := make([]model.Timestamp, len(base.Objects))
	ends := make([]model.Timestamp, len(base.Objects))
	for i := range base.Objects {
		starts[i], ends[i] = base.Objects[i].Interval.Start, base.Objects[i].Interval.End
	}
	slices.Sort(starts)
	slices.Sort(ends)
	df := base.ElemFreqs()
	kept, size := pool[:0:0], make([]float64, 0, len(pool))
	for _, q := range pool {
		begun, _ := slices.BinarySearch(starts, q.Interval.End+1) // objects with start <= q.End
		over, _ := slices.BinarySearch(ends, q.Interval.Start)    // objects with end < q.Start
		expect := float64(begun - over)
		for _, e := range q.Elems {
			expect *= float64(df[e]) / float64(len(base.Objects))
		}
		if maxShare == 0 || expect <= maxShare*float64(len(base.Objects)) {
			kept, size = append(kept, q), append(size, expect)
		}
	}
	pool = kept
	dealt := make([][]int, lists)
	for i, p := range systematic(n*lists, len(pool), func(i int) float64 { return size[i] }) {
		dealt[i%lists] = append(dealt[i%lists], p)
	}
	out := make([][]model.Query, lists)
	for l, picks := range dealt {
		slices.Sort(picks)
		for _, p := range picks {
			out[l] = append(out[l], pool[p])
		}
	}
	return out
}

// poolFloor is the least number of candidates a timed list is thinned
// from. A variable only so that the smoke test can lower it.
var poolFloor = 1 << 16

// inputs is everything a run derives from -seed.
type inputs struct {
	sz   sizes
	base *model.Collection
	// lists[w] is window w's operation list: reads only on the
	// closed-loop workloads, the whole cycle on http_mixed. Every window
	// has its own queries, so that an epoch's median over windows is
	// also a median over query samples; a rerun with the same seed
	// replays the same lists in the same order, window for window.
	lists [][]op
	// inserts are the objects one window (or cycle) adds; every window
	// inserts the same ones after deleting the previous window's copies,
	// so the live corpus has the same content in every window.
	inserts []op
	checks  []op
	// due is the open-loop schedule: lists[w][i] is due at due[i] after
	// the cycle starts.
	due []float64
}

// makeInputs generates the collection, lists operation lists and the
// check subset from the seed. Every epoch of a run has the same
// collection and inserts and its own queries, so that the median across
// epochs, like the one across windows, is also over query samples.
func makeInputs(sz sizes, seed int64, epoch, lists int) *inputs {
	in := &inputs{sz: sz, lists: make([][]op, lists)}
	cfg := gen.SyntheticConfig{Seed: seed}.Defaults(sz.scale)
	in.base = gen.Synthetic(cfg)

	// draw returns lists sets of n queries of the workload's shape,
	// thinned from a pool of at least pool candidates; every call takes
	// its own salt, so that no two draws share a query.
	epochSeed := seed + int64(epoch)<<32
	salt := epochSeed
	draw := func(n, lists, pool int) [][]model.Query {
		pool = max(pool, n*lists)
		shaped := func(n int) [][]model.Query {
			salt++
			return pickQueries(in.base, gen.Workload(in.base, gen.DefaultQueryConfig(), pool, salt), n, lists, sz.maxShare)
		}
		mixed := func(n int) [][]model.Query {
			salt++
			return pickQueries(in.base, gen.MixedPool(in.base, pool, salt), n, lists, sz.maxShare)
		}
		switch {
		case sz.mixedAll:
			return mixed(n)
		case sz.mixedHalf:
			a, b := shaped((n+1)/2), mixed(n/2)
			for l := range a {
				qs := make([]model.Query, 0, n)
				for i := range b[l] {
					qs = append(qs, a[l][i], b[l][i])
				}
				a[l] = append(qs, a[l][len(b[l]):]...)
			}
			return a
		}
		return shaped(n)
	}
	// reads turns drawn queries into lists sets of n operations of one
	// kind; a batch takes its interval from its first row's query. The
	// timed lists are cut from twice as many candidates as they use and
	// never fewer than 64k, so that even short lists come from a pool
	// whose expensive tail is well sampled; the check subset needs no
	// such care.
	reads := func(kind opKind, n, lists int, timed bool) [][]op {
		rows := 1
		if kind == opBatch {
			rows = batchRows
		}
		pool := 0
		if timed {
			pool = max(2*n*rows*lists, poolFloor)
		}
		out := make([][]op, lists)
		for l, qs := range draw(n*rows, lists, pool) {
			for i := 0; i < len(qs); i += rows {
				elems := make([][]model.ElemID, rows)
				for r := range elems {
					elems[r] = qs[i+r].Elems
				}
				out[l] = append(out[l], newOp(kind, qs[i].Interval, elems...))
			}
		}
		return out
	}

	// The inserted objects are thinned the same way, on start time:
	// that is what the time-range partitioner routes by, so every seed
	// sends each shard the same share of a cycle's writes and the
	// compaction policy fires the same number of times.
	nins := sz.burst
	if sz.ops > 0 {
		nins = sz.ops * mixInsert / 100
	}
	icfg := cfg
	icfg.Seed, icfg.Cardinality = seed-1, 16*nins
	pool := gen.Synthetic(icfg).Objects
	picks := systematic(nins, len(pool), func(i int) float64 { return float64(pool[i].Interval.Start) })
	slices.Sort(picks)
	for slot, p := range picks {
		ins := newOp(opInsert, pool[p].Interval, pool[p].Elems)
		ins.slot = slot
		in.inserts = append(in.inserts, ins)
	}

	if sz.ops > 0 {
		in.makeCycles(func(kind opKind, n int) [][]op { return reads(kind, n, lists, true) }, epochSeed)
	} else {
		in.lists = reads(opSearch, sz.reads, lists, true)
	}
	// The check subset: mostly searches, plus every other read kind.
	in.checks = append(in.checks, reads(opSearch, checkOps-3*32, 1, false)[0]...)
	in.checks = append(in.checks, reads(opTopK, 32, 1, false)[0]...)
	in.checks = append(in.checks, reads(opTimeline, 32, 1, false)[0]...)
	in.checks = append(in.checks, reads(opBatch, 32/batchRows, 1, false)[0]...)
	return in
}

// makeCycles lays out the open-loop cycles: the mix in exact proportions
// (sizes.ops is a multiple of 100), shuffled by the seed, on a schedule
// that runs at the base rate for the first four fifths of the cycle time
// and at twice that for the rest.
func (in *inputs) makeCycles(reads func(opKind, int) [][]op, seed int64) {
	n := in.sz.ops
	for k, share := range []int{mixSearch, mixTopK, mixTimeline, mixBatch} {
		for l, ops := range reads(opKind(k), n*share/100) {
			in.lists[l] = append(in.lists[l], ops...)
		}
	}
	rng := rand.New(rand.NewSource(seed - 2))
	for l := range in.lists {
		list := append(in.lists[l], in.inserts...)
		for slot := 0; slot < n*mixDelete/100; slot++ {
			list = append(list, op{kind: opDelete, slot: slot})
		}
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		in.lists[l] = list
	}

	// n operations in time T with rate r over 0.8T and 2r over 0.2T:
	// n = 1.2 r T.
	total := float64(n) / (1.2 * in.sz.rate)
	baseOps := int(math.Round(in.sz.rate * 0.8 * total))
	in.due = make([]float64, n)
	for i := range in.due {
		if i < baseOps {
			in.due[i] = float64(i) / in.sz.rate
		} else {
			in.due[i] = 0.8*total + float64(i-baseOps)/(2*in.sz.rate)
		}
	}
}

// answer is the canonical form of one read's result: every integer the
// result carries, flattened, plus the scores of a ranked result (which
// are compared with a tolerance, since a sharded engine sums IDF
// weights in its own element order).
type answer struct {
	words  []uint64
	scores []float64
}

func (a answer) digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, w := range a.words {
		binary.BigEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func (a answer) equal(b answer) bool {
	if a.digest() != b.digest() || len(a.scores) != len(b.scores) {
		return false
	}
	for i := range a.scores {
		if math.Abs(a.scores[i]-b.scores[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func (a *answer) addIDs(ids []model.ObjectID) {
	a.words = append(a.words, uint64(len(ids)))
	for _, id := range ids {
		a.words = append(a.words, uint64(id))
	}
}

// addBucket records a non-empty timeline bucket. Empty ones are left
// out because the engines disagree on them: a term the dictionary has
// never seen yields no buckets at all, and only a Builder-fed engine
// has such terms.
func (a *answer) addBucket(start, end model.Timestamp, count int, mass int64) {
	if count > 0 {
		a.words = append(a.words, uint64(start), uint64(end), uint64(count), uint64(mass))
	}
}

// oracle answers the check subset by brute force over the live set the
// harness tracks: the seeded base collection, which no operation
// deletes from, plus the inserted objects that are currently alive.
type oracle struct {
	base *model.Collection
	// baseHits[i][r] caches row r of check i scanned over the base
	// collection; only the few live inserts are rescanned per window.
	baseHits [][][]model.ObjectID
	checks   []op
}

func newOracle(base *model.Collection, checks []op) *oracle {
	o := &oracle{base: base, checks: checks, baseHits: make([][][]model.ObjectID, len(checks))}
	bf := bruteforce.New(base)
	for i := range checks {
		c := &checks[i]
		for _, row := range c.rows {
			o.baseHits[i] = append(o.baseHits[i], bf.Query(model.Query{Interval: c.iv, Elems: row}))
		}
	}
	return o
}

// fixedHits serves one precomputed candidate list to rank and aggregate.
type fixedHits []model.ObjectID

func (f fixedHits) Query(model.Query) []model.ObjectID { return f }

// liveObject is an inserted object with the id the engine gave it.
type liveObject struct {
	id model.ObjectID
	op *op
}

// expect returns the answer to every check over base + live. live must
// be ascending by id, which insertion order guarantees.
func (o *oracle) expect(live []liveObject) []answer {
	n := len(o.base.Objects)
	tracked := &model.Collection{DictSize: o.base.DictSize, Objects: make([]model.Object, n, n+len(live))}
	copy(tracked.Objects, o.base.Objects)
	liveColl := &model.Collection{DictSize: o.base.DictSize}
	for i, l := range live {
		obj := model.Object{ID: model.ObjectID(n + i), Interval: l.op.iv, Elems: l.op.rows[0]}
		tracked.Objects = append(tracked.Objects, obj)
		liveColl.Objects = append(liveColl.Objects, obj)
	}
	external := func(ids []model.ObjectID) []model.ObjectID {
		out := make([]model.ObjectID, len(ids))
		for i, id := range ids {
			if int(id) < n {
				out[i] = id
			} else {
				out[i] = live[int(id)-n].id
			}
		}
		return out
	}
	bfLive := bruteforce.New(liveColl)
	scorer := rank.NewScorer(tracked, rank.ScorerConfig{})

	out := make([]answer, len(o.checks))
	for i := range o.checks {
		c := &o.checks[i]
		var a answer
		for r, row := range c.rows {
			q := model.Query{Interval: c.iv, Elems: row}
			hits := fixedHits(append(o.baseHits[i][r][:len(o.baseHits[i][r]):len(o.baseHits[i][r])], bfLive.Query(q)...))
			switch c.kind {
			case opTopK:
				res := rank.TopK(hits, tracked, scorer, q, topK)
				ids := make([]model.ObjectID, len(res))
				for j, x := range res {
					ids[j] = x.ID
					a.scores = append(a.scores, x.Score)
				}
				a.addIDs(external(ids))
			case opTimeline:
				for _, b := range aggregate.Histogram(hits, tracked, q, tlBuckets) {
					a.addBucket(b.Span.Start, b.Span.End, b.Count, b.Mass)
				}
			default:
				a.addIDs(external(hits))
			}
		}
		out[i] = a
	}
	return out
}
