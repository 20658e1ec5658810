package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	temporalir "repro"
	"repro/internal/model"
	"repro/internal/server"
)

// engine is what the harness calls on *temporalir.Engine and
// *temporalir.Sharded alike.
type engine interface {
	server.Engine
	Search(start, end temporalir.Timestamp, terms ...string) []temporalir.ObjectID
}

// epochResult is what one child process reports: the epoch's value of
// every metric it measured and the per-window values behind it.
type epochResult struct {
	Env       envBlock             `json:"env"`
	Values    map[string]float64   `json:"values"`
	Windows   map[string][]float64 `json:"windows,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	// Late are the failed operations whose only fault was a correct reply
	// after the open loop's deadline.
	Late  int64          `json:"late"`
	Notes map[string]any `json:"notes,omitempty"`
}

// bench is one workload built and ready to run windows against.
type bench struct {
	in      *inputs
	engines []engine
	srv     *server.Server
	lb      *loopback
	conns   []*rawClient

	// live are the inserted objects currently alive, ascending by id.
	live []liveObject
	// prev[slot] is the id the previous cycle's insert #slot received,
	// and deleteReqs[slot] the request that deletes it.
	prev       []model.ObjectID
	deleteReqs [][]byte

	// late is the part of failed that answered correctly, but after the
	// open loop's deadline.
	attempted, failed, late int64
}

// build constructs the program under test from the generated
// collection: the index build(s), the sharded coordinator and server
// where the workload has them, the listener and the connections.
func build(in *inputs, baseTerms [][]string) (*bench, error) {
	b := &bench{in: in}
	for _, m := range in.sz.methods {
		e, err := newEngine(in.base, baseTerms, m, in.sz.shards)
		if err != nil {
			return nil, err
		}
		b.engines = append(b.engines, e)
	}
	if in.sz.conns == 0 {
		return b, nil
	}
	b.srv = server.NewWithOptions(b.engines[0], server.Options{})
	lb, err := serveLoopback(b.srv)
	if err != nil {
		return nil, err
	}
	b.lb = lb
	for i := 0; i < in.sz.conns; i++ {
		c, err := dialRaw(lb.addr)
		if err != nil {
			return nil, err
		}
		b.conns = append(b.conns, c)
	}
	return b, nil
}

func (b *bench) close(ctx context.Context) error {
	for _, c := range b.conns {
		c.close()
	}
	lb := b.lb
	b.conns, b.lb = nil, nil
	if lb != nil {
		return lb.shutdown(ctx)
	}
	return nil
}

// newEngine builds an Engine over the collection (shards == 0), or a
// Sharded of the given width the way irserve does: through a Builder
// fed string terms (baseTerms[i] spells base.Objects[i].Elems).
func newEngine(base *model.Collection, baseTerms [][]string, m temporalir.Method, shards int) (engine, error) {
	var (
		e   engine
		err error
	)
	if shards == 0 {
		e, err = temporalir.EngineFromCollection(base, m, temporalir.Options{})
	} else {
		bl := temporalir.NewBuilder()
		for i := range base.Objects {
			o := &base.Objects[i]
			bl.Add(o.Interval.Start, o.Interval.End, baseTerms[i]...)
		}
		e, err = bl.BuildSharded(m, temporalir.Options{}, temporalir.ShardedOptions{Shards: shards})
	}
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", m, err)
	}
	return e, nil
}

// window holds one window's raw measurements.
type window struct {
	reads    int // reads completed in time
	wall     time.Duration
	cpu      time.Duration
	readLat  [][]int64 // per caller
	writeLat []int64
	lag      [][]int64 // open loop: generator lateness per caller
	compact  time.Duration
	hits     int64
	rejected int64
	gcCycles uint32
	gcPause  time.Duration
	backlog  time.Duration // open loop: how late the cycle's last reply was
	// dueLat are the open loop's read latencies counted from each
	// operation's due time, queueing behind its connection included.
	dueLat []int64
}

func (b *bench) newWindow() *window {
	callers := max(1, len(b.conns))
	w := &window{readLat: make([][]int64, callers), lag: make([][]int64, callers)}
	per := len(b.in.lists[0])*len(b.engines)/callers + 1
	for i := range w.readLat {
		w.readLat[i] = make([]int64, 0, per)
		w.lag[i] = make([]int64, 0, per)
	}
	w.writeLat = make([]int64, 0, len(b.in.inserts)*len(b.engines))
	return w
}

// reset empties the window and keeps its buffers.
func (w *window) reset() {
	*w = window{readLat: w.readLat, lag: w.lag, writeLat: w.writeLat[:0], dueLat: w.dueLat[:0]}
	for i := range w.readLat {
		w.readLat[i] = w.readLat[i][:0]
		w.lag[i] = w.lag[i][:0]
	}
}

// fail counts n failed operations and says why on standard error.
func (b *bench) fail(n int64, format string, args ...any) {
	b.failed += n
	fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
}

// readsLib issues the window's list serially to every engine.
func (b *bench) readsLib(w *window, list []op) {
	lat := w.readLat[0]
	t0 := time.Now()
	for _, e := range b.engines {
		for i := range list {
			o := &list[i]
			s := time.Now()
			ids := e.Search(o.iv.Start, o.iv.End, o.terms[0]...)
			lat = append(lat, int64(time.Since(s)))
			w.hits += int64(len(ids))
		}
	}
	w.wall = time.Since(t0)
	w.readLat[0] = lat
	w.reads = len(lat)
}

// readsHTTP issues the window's list closed-loop, connection c taking
// every len(conns)-th request.
func (b *bench) readsHTTP(w *window, list []op) error {
	errs := make([]error, len(b.conns))
	bad := make([]int64, len(b.conns))
	rejected := make([]int64, len(b.conns))
	hits := make([]int64, len(b.conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := w.readLat[c]
			for i := c; i < len(list); i += len(b.conns) {
				s := time.Now()
				status, body, err := b.conns[c].do(list[i].req)
				d := time.Since(s)
				if err != nil {
					errs[c] = err
					return
				}
				if status != 200 {
					bad[c]++
					if status == 429 || status == 503 {
						rejected[c]++
					}
					continue
				}
				lat = append(lat, int64(d))
				hits[c] += int64(len(body))
			}
			w.readLat[c] = lat
		}()
	}
	wg.Wait()
	w.wall = time.Since(t0)
	for c := range b.conns {
		if errs[c] != nil {
			return errs[c]
		}
		w.reads += len(w.readLat[c])
		w.hits += hits[c]
		w.rejected += rejected[c]
		if bad[c] > 0 {
			b.fail(bad[c], "%d reads on connection %d answered non-200", bad[c], c)
		}
	}
	return nil
}

// insertHTTP posts one insert and returns the id the server assigned.
func insertHTTP(c *rawClient, req []byte) (model.ObjectID, error) {
	status, body, err := c.do(req)
	if err != nil {
		return 0, err
	}
	if status != 201 {
		return 0, fmt.Errorf("POST /objects: status %d: %s", status, body)
	}
	return insertedID(body)
}

// insertedID reads the id out of a POST /objects reply.
func insertedID(body []byte) (model.ObjectID, error) {
	var out struct {
		ID model.ObjectID `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("POST /objects reply %q: %w", body, err)
	}
	return out.ID, nil
}

// burst is a closed-loop window's write phase: insert the B objects,
// delete the copies the previous window inserted, compact once. The
// live corpus therefore has the same content before and after.
func (b *bench) burst(ctx context.Context, w *window) error {
	runtime.GC() // so that no collection of the reads' garbage lands in the write phase
	ins := b.in.inserts
	fresh := make([]liveObject, len(ins))
	// An embedded insert takes about a microsecond, too little to time
	// alone: those are timed sixteen at a time and the sample is the
	// group's mean.
	group := 1
	if b.conns == nil {
		group = 16
	}
	for ei, e := range b.engines {
		for g := 0; g < len(ins); g += group {
			end := min(g+group, len(ins))
			s := time.Now()
			for i := g; i < end; i++ {
				o := &ins[i]
				var id model.ObjectID
				if b.conns == nil {
					id = e.Insert(o.iv.Start, o.iv.End, o.terms[0]...)
				} else {
					var err error
					if id, err = insertHTTP(b.conns[0], o.req); err != nil {
						return err
					}
				}
				if ei > 0 && fresh[i].id != id {
					return fmt.Errorf("engine %d assigned id %d to insert %d, engine 0 assigned %d", ei, id, i, fresh[i].id)
				}
				fresh[i] = liveObject{id: id, op: o}
			}
			w.writeLat = append(w.writeLat, int64(time.Since(s))/int64(end-g))
		}
		for _, l := range b.live {
			if b.conns == nil {
				if err := e.Delete(l.id); err != nil {
					return err
				}
			} else if status, body, err := b.conns[0].do(encodeDelete(l.id)); err != nil || status != 200 {
				return fmt.Errorf("DELETE /objects/%d: status %d %s: %w", l.id, status, body, err)
			}
		}
	}
	b.attempted += int64(len(b.engines) * (len(ins) + len(b.live)))
	b.live = fresh
	return b.compact(ctx, w)
}

// compact folds every engine's memtable and tombstones into its index
// and times the whole round.
func (b *bench) compact(ctx context.Context, w *window) error {
	b.attempted++
	s := time.Now()
	if b.conns != nil {
		status, body, err := b.conns[0].do([]byte(compactRequest))
		if err != nil || status != 200 {
			return fmt.Errorf("POST /admin/compact: status %d %s: %w", status, body, err)
		}
	} else {
		for _, e := range b.engines {
			if _, err := e.Compact(ctx); err != nil {
				return fmt.Errorf("compact: %w", err)
			}
		}
	}
	w.compact = time.Since(s)
	return nil
}

// cycle runs one open-loop cycle: every operation of the list is sent
// at its due time, or as soon after as its connection is free. A reply
// later than lateLimit after the due time is a failure. Reads are timed
// twice: from the send (readLat, the end-to-end percentiles) and from
// the due time (dueLat, a per-layer tail) — the second charges a stall
// to every request queued behind it, and with two connections and a few
// thousand reads a cycle its p99 spread 25% across seeds where the
// first spreads 8%. Writes are inline, so reads run over a filling
// memtable and growing tombstones; compaction waits for the cycle to
// end.
func (b *bench) cycle(w *window, list []op) error {
	due := b.in.due
	nc := len(b.conns)
	errs := make([]error, nc)
	reads := make([]int, nc)
	bad := make([]int64, nc)
	late := make([]int64, nc)
	rejected := make([]int64, nc)
	ends := make([]time.Time, nc)
	backlog := make([]time.Duration, nc)
	wlat := make([][]int64, nc)
	dueLat := make([][]int64, nc)
	for c := range dueLat {
		wlat[c] = make([]int64, 0, len(b.in.inserts))
		dueLat[c] = make([]int64, 0, len(list))
	}
	fresh := make([]liveObject, len(b.in.inserts))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat, lag := w.readLat[c], w.lag[c]
			free := start
			for i := c; i < len(list); i += nc {
				o := &list[i]
				req := o.req
				if o.kind == opDelete {
					req = b.deleteReqs[o.slot]
				}
				dueAt := start.Add(time.Duration(due[i] * float64(time.Second)))
				sleepUntil(dueAt)
				now := time.Now()
				// The generator is late by however long after both the
				// due time and the connection falling free it sends.
				ready := dueAt
				if free.After(ready) {
					ready = free
				}
				lag = append(lag, int64(now.Sub(ready)))
				status, body, err := b.conns[c].do(req)
				free = time.Now()
				if err != nil {
					errs[c] = err
					return
				}
				d := free.Sub(dueAt)
				backlog[c] = d
				if status/100 != 2 {
					bad[c]++
					if status == 429 || status == 503 {
						rejected[c]++
					}
					continue
				}
				if d > lateLimit {
					late[c]++
				}
				switch {
				case o.kind.isRead():
					lat = append(lat, int64(free.Sub(now)))
					dueLat[c] = append(dueLat[c], int64(d))
					if d <= lateLimit {
						reads[c]++
					}
				case o.kind == opInsert:
					wlat[c] = append(wlat[c], int64(free.Sub(now)))
					id, err := insertedID(body)
					if err != nil {
						errs[c] = err
						return
					}
					fresh[o.slot] = liveObject{id: id, op: o}
				}
			}
			ends[c] = free
			w.readLat[c], w.lag[c] = lat, lag
		}()
	}
	wg.Wait()
	end := start
	for c := range b.conns {
		if errs[c] != nil {
			return errs[c]
		}
		if ends[c].After(end) {
			end = ends[c]
		}
		w.reads += reads[c]
		w.rejected += rejected[c]
		w.writeLat = append(w.writeLat, wlat[c]...)
		w.dueLat = append(w.dueLat, dueLat[c]...)
		w.backlog = max(w.backlog, backlog[c])
		if bad[c] > 0 {
			b.fail(bad[c], "%d operations on connection %d answered non-2xx", bad[c], c)
		}
		if late[c] > 0 {
			b.late += late[c]
			b.fail(late[c], "%d operations on connection %d missed the %v limit", late[c], c, lateLimit)
		}
	}
	w.wall = end.Sub(start)
	b.attempted += int64(len(list))

	// The cycle deleted the first few of the previous cycle's inserts
	// and added its own.
	dead := make(map[model.ObjectID]bool)
	for slot := 0; slot < len(list)*mixDelete/100; slot++ {
		dead[b.prev[slot]] = true
	}
	kept := b.live[:0]
	for _, l := range b.live {
		if !dead[l.id] {
			kept = append(kept, l)
		}
	}
	b.live = kept
	b.addCycleInserts(fresh)
	return nil
}

// addCycleInserts records a cycle's (or the priming pass's) inserts,
// indexed by slot, as alive and as the next cycle's delete targets.
func (b *bench) addCycleInserts(fresh []liveObject) {
	b.prev, b.deleteReqs = b.prev[:0], b.deleteReqs[:0]
	for _, l := range fresh {
		b.prev = append(b.prev, l.id)
		b.deleteReqs = append(b.deleteReqs, encodeDelete(l.id))
	}
	sorted := slices.Clone(fresh)
	slices.SortFunc(sorted, func(a, b liveObject) int { return cmp.Compare(a.id, b.id) })
	for _, l := range sorted {
		if l.op != nil { // a failed insert left its slot empty
			b.live = append(b.live, l)
		}
	}
}

// engineAnswer evaluates a check through the engine's context-taking
// methods, the ones the server calls.
func engineAnswer(ctx context.Context, e engine, o *op) (answer, error) {
	var a answer
	lo, hi := o.iv.Start, o.iv.End
	switch o.kind {
	case opTopK:
		res, err := e.SearchTopKCtx(ctx, lo, hi, topK, o.terms[0]...)
		if err != nil {
			return a, err
		}
		ids := make([]model.ObjectID, len(res))
		for i, r := range res {
			ids[i] = r.ID
			a.scores = append(a.scores, r.Score)
		}
		a.addIDs(ids)
	case opTimeline:
		tl, err := e.TimelineCtx(ctx, lo, hi, tlBuckets, o.terms[0]...)
		if err != nil {
			return a, err
		}
		for _, t := range tl {
			a.addBucket(t.Start, t.End, t.Count, t.Mass)
		}
	case opBatch:
		for _, r := range e.SearchTermsBatchCtx(ctx, lo, hi, o.terms) {
			if r.Err != nil {
				return a, r.Err
			}
			a.addIDs(r.IDs)
		}
	default:
		ids, err := e.SearchCtx(ctx, lo, hi, o.terms[0]...)
		if err != nil {
			return a, err
		}
		a.addIDs(ids)
	}
	return a, nil
}

// httpAnswer evaluates a check over the socket and decodes the JSON.
func httpAnswer(c *rawClient, o *op) (answer, error) {
	var a answer
	status, body, err := c.do(o.req)
	if err != nil {
		return a, err
	}
	if status != 200 {
		return a, fmt.Errorf("status %d: %s", status, body)
	}
	switch o.kind {
	case opTimeline:
		var out struct {
			Buckets []temporalir.TimelineBucket `json:"buckets"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return a, err
		}
		for _, t := range out.Buckets {
			a.addBucket(t.Start, t.End, t.Count, t.Mass)
		}
	case opBatch:
		var out struct {
			Results []struct {
				Hits  []model.ObjectID `json:"hits"`
				Error string           `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return a, err
		}
		for _, r := range out.Results {
			if r.Error != "" {
				return a, fmt.Errorf("batch row: %s", r.Error)
			}
			a.addIDs(r.Hits)
		}
	default:
		var out struct {
			Hits []struct {
				ID    model.ObjectID `json:"id"`
				Score *float64       `json:"score"`
			} `json:"hits"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return a, err
		}
		ids := make([]model.ObjectID, len(out.Hits))
		for i, h := range out.Hits {
			ids[i] = h.ID
			if h.Score != nil {
				a.scores = append(a.scores, *h.Score)
			}
		}
		a.addIDs(ids)
	}
	return a, nil
}

// verify replays the check subset through every engine (or over the
// socket) and compares each answer with the oracle's.
func (b *bench) verify(ctx context.Context, want []answer) {
	for _, e := range b.engines {
		e.RefreshScorer() // rank against the live set, as the oracle does
	}
	check := func(who string, i int, got answer, err error) {
		b.attempted++
		if err != nil {
			b.fail(1, "check %d on %s: %v", i, who, err)
		} else if !got.equal(want[i]) {
			b.fail(1, "check %d (kind %d) on %s: digest %x, oracle %x", i, b.in.checks[i].kind, who, got.digest(), want[i].digest())
		}
	}
	for i := range b.in.checks {
		o := &b.in.checks[i]
		if b.conns != nil {
			got, err := httpAnswer(b.conns[0], o)
			check("socket", i, got, err)
			continue
		}
		for ei, e := range b.engines {
			got, err := engineAnswer(ctx, e, o)
			check(string(b.in.sz.methods[ei]), i, got, err)
		}
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runTimed is one untraced epoch: build, verify, prime, then windows+1
// windows of which the first is warm-up.
func runTimed(ctx context.Context, sz sizes, seed int64, epoch, windows int) (*epochResult, error) {
	res := &epochResult{Env: environment(seed, sz), Values: map[string]float64{}, Windows: map[string][]float64{}, Notes: map[string]any{}}

	prep := time.Now()
	in := makeInputs(sz, seed, epoch, windows+1)
	or := newOracle(in.base, in.checks)
	first := or.expect(nil)
	var baseTerms [][]string
	if sz.shards > 0 {
		baseTerms = make([][]string, len(in.base.Objects))
		for i := range in.base.Objects {
			baseTerms[i] = termsOf(in.base.Objects[i].Elems)
		}
	}
	res.Values["client.prep_s"] = time.Since(prep).Seconds()
	// The longest wait for two CPUs, and whether every wait got them.
	var settleMax time.Duration
	settled := true
	settle := func() {
		took, ok := settleCPUs()
		settleMax, settled = max(settleMax, took), settled && ok
	}
	settle()

	heap0 := liveHeap()
	t0 := time.Now()
	b, err := build(in, baseTerms)
	if err != nil {
		return nil, err
	}
	defer func() { _ = b.close(ctx) }() // second close after an error path; the success path checks it below
	b.verify(ctx, first)
	res.Values["setup_s"] = time.Since(t0).Seconds()
	res.Values["proc.heap_bytes_per_object"] = (float64(liveHeap()) - float64(heap0)) / float64(len(in.base.Objects))

	// Prime: the first window needs a previous window's inserts to
	// delete, so that every window, warm-up included, has one shape.
	w := b.newWindow()
	if sz.ops == 0 {
		if err := b.burst(ctx, w); err != nil {
			return nil, err
		}
	} else {
		fresh := make([]liveObject, len(in.inserts))
		for i := range in.inserts {
			id, err := insertHTTP(b.conns[0], in.inserts[i].req)
			if err != nil {
				return nil, err
			}
			fresh[i] = liveObject{id: id, op: &in.inserts[i]}
		}
		b.addCycleInserts(fresh)
		if err := b.compact(ctx, w); err != nil {
			return nil, err
		}
		if sh, ok := b.engines[0].(*temporalir.Sharded); ok {
			res.Notes["shard_objects"] = shardObjects(sh)
		}
	}

	var ms0, ms1 runtime.MemStats
	var all []int64 // every measured read latency of the epoch
	var lags, dueLat []int64
	for wi := 0; wi <= windows; wi++ {
		w.reset()
		runtime.GC()
		settle()
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		switch {
		case sz.ops > 0:
			err = b.cycle(w, in.lists[wi])
		case b.conns != nil:
			err = b.readsHTTP(w, in.lists[wi])
		default:
			b.readsLib(w, in.lists[wi])
		}
		if err != nil {
			return nil, err
		}
		w.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		w.gcCycles, w.gcPause = ms1.NumGC-ms0.NumGC, time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)
		if sz.ops == 0 {
			b.attempted += int64(len(in.lists[wi]) * len(b.engines))
			err = b.burst(ctx, w)
		} else {
			runtime.GC() // as in burst
			err = b.compact(ctx, w)
		}
		if err != nil {
			return nil, err
		}
		b.verify(ctx, or.expect(b.live))
		if wi == 0 {
			continue // warm-up
		}

		var lat []int64
		for _, l := range w.readLat {
			lat = append(lat, l...)
		}
		slices.Sort(lat)
		all = append(all, lat...)
		for _, l := range w.lag {
			lags = append(lags, l...)
		}
		dueLat = append(dueLat, w.dueLat...)
		var size int64
		for _, e := range b.engines {
			size += e.SizeBytes()
		}
		add := func(name string, v float64) { res.Windows[name] = append(res.Windows[name], v) }
		add("qps", float64(w.reads)/w.wall.Seconds())
		add("lat_p50_us", quantileUS(lat, 0.50))
		add("lat_p99_us", quantileUS(lat, 0.99))
		add("write_p50_us", medianUS(w.writeLat))
		add("compact_ms", ms(w.compact))
		add("bytes_per_object", float64(size)/float64(b.engines[0].Len()))
		add("proc.cpu_us_per_op", us(w.cpu)/float64(max(1, w.reads)))
		add("proc.gc_cycles", float64(w.gcCycles))
		add("proc.gc_pause_ms", ms(w.gcPause))
		add("server.rejected_share", float64(w.rejected)/float64(len(in.lists[wi])*len(b.engines)))
		add("reads", float64(w.reads))
		add("hits", float64(w.hits))
		add("backlog_ms", ms(w.backlog))
	}
	if err := b.close(ctx); err != nil {
		return nil, err
	}

	for name, vs := range res.Windows {
		res.Values[name] = median(vs)
	}
	// bytes_per_object is the state after the last compaction.
	res.Values["bytes_per_object"] = res.Windows["bytes_per_object"][windows-1]
	res.Values["run.window_iqr_pct"] = spreadPct(res.Windows["qps"])
	slices.Sort(all)
	slices.Sort(lags)
	// The tail is taken over the epoch's measured windows together: one
	// window has too few reads beyond its 99th percentile (ten, on
	// http_mixed) for a median of window tails to hold still.
	res.Values["lat_p99_us"] = quantileUS(all, 0.99)
	if sz.ops > 0 {
		all = dueLat // the open loop's far tail counts from the due time
		slices.Sort(all)
	}
	res.Values["client.lat_p999_us"] = quantileUS(all, 0.999)
	res.Values["client.sched_lag_p99_us"] = quantileUS(lags, 0.99)

	// Every window issues the same number of reads, and none may go
	// missing (a late one is missing here, and already counted).
	if vs := res.Windows["reads"]; rangePct(vs) != 0 && b.late == 0 {
		b.fail(1, "reads differ between windows: %v", vs)
	}
	res.Notes["cpu_settle_s"], res.Notes["cpu_settled"] = settleMax.Seconds(), settled
	res.Attempted, res.Failed, res.Late = b.attempted, b.failed, b.late
	return res, nil
}

// shardObjects is the live object count per shard: the balance the
// time-range partitioner derives from the corpus.
func shardObjects(sh *temporalir.Sharded) []int {
	var out []int
	for _, st := range sh.ShardStats() {
		out = append(out, st.Objects)
	}
	return out
}
