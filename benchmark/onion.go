package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	temporalir "repro"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// outDir receives trace-<workload>.jsonl; relative to the repository
// root, which is where the command is run from.
var outDir = filepath.Join("benchmark", "out")

// span is one timed call into a layer. The onion spans of one probe
// share its op number and nest by parent; side probes (top-k, inserts,
// calibration loops) are roots.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the epoch ends.
type tracer struct {
	t0    time.Time
	spans []span
	next  int // id for the next side-probe span
}

// call times fn as a span and returns its duration. id 0 draws a fresh
// root-span id.
func (t *tracer) call(id, parent, op int, name string, fn func()) time.Duration {
	if id == 0 {
		t.next++
		id = t.next
	}
	s := time.Now()
	fn()
	e := time.Now()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(s.Sub(t.t0)), End: int64(e.Sub(t.t0))})
	return e.Sub(s)
}

func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// The onion's boundaries, innermost first.
const (
	layerIndex = iota
	layerEngine
	layerShard
	layerServer
	layerSocket
	numLayers
)

// discard is an http.ResponseWriter that counts the body and keeps
// nothing: the handler's cost without a socket under it.
type discard struct {
	header http.Header
	status int
	bytes  int64
}

func (d *discard) Header() http.Header { return d.header }
func (d *discard) WriteHeader(s int)   { d.status = s }
func (d *discard) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	return len(p), nil
}

func parseRequest(raw []byte) (*http.Request, error) {
	return http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
}

// diffMedianUS is the median over probes of a[i]-b[i], in microseconds:
// the self time of the layer that a wraps around b.
func diffMedianUS(a, b []time.Duration) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = us(a[i] - b[i])
	}
	return median(d)
}

func medianDurUS(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = us(d)
	}
	return median(v)
}

// runTraced is the traced epoch: the onion replay. Every probeStride-th
// read of the workload's list is issued, single-threaded, at each
// successively outer public boundary — Index.Query, Engine.SearchCtx,
// Sharded.SearchShardsCtx, Server.ServeHTTP into a discarding writer,
// the loopback socket — and a layer's self time is the median
// difference between adjacent boundaries. Side probes time what the
// onion does not pass through: the other eight index methods, ranked
// and aggregated reads, writes, compaction, persistence, the tenant
// registry and the harness's own client.
func runTraced(ctx context.Context, sz sizes, seed int64) (*epochResult, error) {
	res := &epochResult{Env: environment(seed, sz), Values: map[string]float64{}, Notes: map[string]any{}}
	v := res.Values
	in := makeInputs(sz, seed, 0, 1)
	n := float64(len(in.base.Objects))
	baseTerms := make([][]string, len(in.base.Objects))
	for i := range in.base.Objects {
		baseTerms[i] = termsOf(in.base.Objects[i].Elems)
	}

	var probes []*op
	for i := 0; i < len(in.lists[0]) && len(probes) < probeCap; i += probeStride {
		if o := &in.lists[0][i]; o.kind.isRead() {
			p := newOp(opSearch, o.iv, o.rows[0])
			probes = append(probes, &p)
		}
	}
	np := len(probes)
	settle, settled := settleCPUs()
	res.Notes["cpu_settle_s"], res.Notes["cpu_settled"] = settle.Seconds(), settled
	tr := &tracer{t0: time.Now(), next: numLayers * np}
	// Onion span ids are fixed up front, so that an inner span can name
	// its parent before the outer pass has run.
	id := func(layer, p int) int { return 1 + layer*np + p }
	// What the server calls for a search: the coordinator on a sharded
	// workload, the engine otherwise. The other one is a root.
	parent := func(layer, p int) int {
		switch {
		case layer == layerSocket:
			return 0
		case layer == layerShard && sz.shards == 0:
			return 0
		case layer == layerEngine && sz.shards == 0:
			return id(layerServer, p)
		}
		return id(layer+1, p)
	}
	var dur [numLayers][]time.Duration
	for l := range dur {
		dur[l] = make([]time.Duration, np)
	}

	// Index layer: all nine methods, bare.
	for _, m := range allMethods {
		slug := "index." + methodSlug(m)
		var ix temporalir.Index
		var err error
		d := tr.call(0, 0, 0, slug+".build", func() { ix, err = temporalir.NewIndex(m, in.base, temporalir.Options{}) })
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", m, err)
		}
		v[slug+".build_s"] = d.Seconds()
		v[slug+".bytes_per_object"] = float64(ix.SizeBytes()) / n
		qd := make([]time.Duration, np)
		runtime.GC() // before every pass, as between timed windows: a build's garbage is not collected under the probes
		for p, o := range probes {
			q := model.Query{Interval: o.iv, Elems: o.rows[0]}
			sid, par := 0, 0
			if m == temporalir.IRHintPerf {
				sid, par = id(layerIndex, p), parent(layerIndex, p)
			}
			qd[p] = tr.call(sid, par, p, slug+".query", func() { ix.Query(q) })
		}
		v[slug+".query_us"] = medianDurUS(qd)
		if m == temporalir.IRHintPerf {
			dur[layerIndex] = qd
		}
	}

	// Engine layer, with the engine's own stage trace in the context.
	e, err := newEngine(in.base, nil, temporalir.IRHintPerf, 0)
	if err != nil {
		return nil, err
	}
	eng := e.(*temporalir.Engine)
	var stage [obs.NumStages]time.Duration
	traced := func(name string) (context.Context, func()) {
		t := obs.NewTrace(name)
		return obs.ContextWithTrace(ctx, t), func() {
			for s := obs.Stage(0); s < obs.NumStages; s++ {
				stage[s] += t.StageTotal(s)
			}
		}
	}
	hits := 0
	runtime.GC()
	for p, o := range probes {
		c, done := traced("search")
		dur[layerEngine][p] = tr.call(id(layerEngine, p), parent(layerEngine, p), p, "engine.search", func() {
			ids, _ := eng.SearchCtx(c, o.iv.Start, o.iv.End, o.terms[0]...) // ctx never fires
			hits += len(ids)
		})
		done()
	}
	v["engine.search_us"] = medianDurUS(dur[layerEngine])
	v["engine.self_us"] = diffMedianUS(dur[layerEngine], dur[layerIndex])
	for _, s := range []obs.Stage{obs.StagePlan, obs.StagePostings, obs.StageIntersect, obs.StageFilter, obs.StageSort} {
		v["engine.stage."+s.String()+"_us"] = us(stage[s]) / float64(np)
	}
	side := func(name string, fn func(c context.Context, o *op)) float64 {
		ds := make([]time.Duration, np)
		runtime.GC()
		for p, o := range probes {
			c, done := traced(name)
			ds[p] = tr.call(0, 0, p, name, func() { fn(c, o) })
			done()
		}
		return medianDurUS(ds)
	}
	stage = [obs.NumStages]time.Duration{}
	v["engine.topk_us"] = side("engine.topk", func(c context.Context, o *op) {
		_, _ = eng.SearchTopKCtx(c, o.iv.Start, o.iv.End, topK, o.terms[0]...) // ctx never fires
	})
	v["engine.stage.rank_us"] = us(stage[obs.StageRank]) / float64(np)
	v["engine.timeline_us"] = side("engine.timeline", func(c context.Context, o *op) {
		_, _ = eng.TimelineCtx(c, o.iv.Start, o.iv.End, tlBuckets, o.terms[0]...) // ctx never fires
	})
	v["engine.stage.agg_us"] = us(stage[obs.StageAgg]) / float64(np)
	var batches []op
	for p := 0; p+batchRows <= np; p += batchRows {
		rows := make([][]model.ElemID, batchRows)
		for r := range rows {
			rows[r] = probes[p+r].rows[0]
		}
		batches = append(batches, newOp(opBatch, probes[p].iv, rows...))
	}
	var rowUS []float64
	for i := range batches {
		o := &batches[i]
		d := tr.call(0, 0, i, "engine.batch", func() { eng.SearchTermsBatchCtx(ctx, o.iv.Start, o.iv.End, o.terms) })
		rowUS = append(rowUS, us(d)/batchRows)
	}
	v["engine.batch_row_us"] = median(rowUS)
	var refresh []float64
	for i := 0; i < 3; i++ {
		refresh = append(refresh, ms(tr.call(0, 0, i, "engine.refresh_scorer", eng.RefreshScorer)))
	}
	v["engine.refresh_scorer_ms"] = median(refresh)

	// Persistence round trip, before anything below changes the engine.
	var snap bytes.Buffer
	v["persist.save_ms"] = ms(tr.call(0, 0, 0, "persist.save", func() { err = eng.Save(&snap) }))
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	v["persist.bytes_per_object"] = float64(snap.Len()) / n
	v["persist.load_ms"] = ms(tr.call(0, 0, 0, "persist.load", func() {
		_, err = temporalir.LoadEngine(bytes.NewReader(snap.Bytes()), temporalir.IRHintPerf, temporalir.Options{})
	}))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}

	// Shard layer: the same corpus and probes through a 4-shard and a
	// 1-shard coordinator.
	shardPass := func(shards int, layer int) ([]time.Duration, *temporalir.Sharded, error) {
		e, err := newEngine(in.base, baseTerms, temporalir.IRHintPerf, shards)
		if err != nil {
			return nil, nil, err
		}
		sh := e.(*temporalir.Sharded)
		ds := make([]time.Duration, np)
		planned, pruned := 0, 0
		stage = [obs.NumStages]time.Duration{}
		pool0 := sh.PoolStats()
		runtime.GC()
		for p, o := range probes {
			c, done := traced("search")
			sid, par := 0, 0
			if layer >= 0 {
				sid, par = id(layer, p), parent(layer, p)
			}
			ds[p] = tr.call(sid, par, p, fmt.Sprintf("shard%d.search", shards), func() {
				_, rep, _ := sh.SearchShardsCtx(c, o.iv.Start, o.iv.End, o.terms[0]...) // ctx never fires
				planned, pruned = planned+rep.Planned, pruned+rep.Pruned
			})
			done()
		}
		if layer >= 0 {
			pool1 := sh.PoolStats()
			maps := float64(pool1.Maps - pool0.Maps)
			v["exec.maps_per_query"] = maps / float64(np)
			v["exec.helpers_per_map"] = float64(pool1.Helpers-pool0.Helpers) / max(1, maps)
			v["shard.scatter_us"] = us(stage[obs.StageScatter]) / float64(np)
			v["shard.merge_us"] = us(stage[obs.StageMerge]) / float64(np)
			v["shard.pruned_share"] = float64(pruned) / float64(max(1, planned+pruned))
			res.Notes["shard_objects"] = shardObjects(sh)
		}
		return ds, sh, nil
	}
	one, _, err := shardPass(1, -1)
	if err != nil {
		return nil, err
	}
	v["shard.n1_overhead_us"] = diffMedianUS(one, dur[layerEngine])
	var sh4 *temporalir.Sharded
	if dur[layerShard], sh4, err = shardPass(4, layerShard); err != nil {
		return nil, err
	}
	v["shard.search_us"] = medianDurUS(dur[layerShard])
	v["shard.overhead_us"] = diffMedianUS(dur[layerShard], dur[layerEngine])

	// Server layer: the handler in memory, around the engine kind the
	// workload serves.
	var served engine = eng
	inner := layerEngine
	if sz.shards > 0 {
		served, inner = sh4, layerShard
	}
	srv := server.NewWithOptions(served, server.Options{})
	handle := func(name string, op int, sid, par int, raw []byte) (time.Duration, *discard, error) {
		req, err := parseRequest(raw)
		if err != nil {
			return 0, nil, fmt.Errorf("parse own request: %w", err)
		}
		w := &discard{header: http.Header{}, status: 200}
		d := tr.call(sid, par, op, name, func() { srv.ServeHTTP(w, req.WithContext(ctx)) })
		if w.status/100 != 2 {
			return 0, nil, fmt.Errorf("%s: status %d", name, w.status)
		}
		return d, w, nil
	}
	var respBytes int64
	runtime.GC()
	for p, o := range probes {
		d, w, err := handle("server.search", p, id(layerServer, p), parent(layerServer, p), o.req)
		if err != nil {
			return nil, err
		}
		dur[layerServer][p] = d
		respBytes += w.bytes
	}
	v["server.search_handler_us"] = medianDurUS(dur[layerServer])
	v["server.self_us"] = diffMedianUS(dur[layerServer], dur[inner])
	v["server.resp_bytes_per_hit"] = float64(respBytes) / float64(max(1, hits))
	var batchDur []time.Duration
	for i := range batches {
		d, _, err := handle("server.batch", i, 0, 0, batches[i].req)
		if err != nil {
			return nil, err
		}
		batchDur = append(batchDur, d)
	}
	v["server.batch_handler_us"] = medianDurUS(batchDur)
	const gets = 10000
	d := tr.call(0, 0, 0, "tenant.get", func() {
		for i := 0; i < gets; i++ {
			if tn, err := srv.Registry().Get(tenant.DefaultID); err == nil {
				tn.Release()
			}
		}
	})
	v["tenant.get_ns"] = float64(d) / gets

	// Socket layer: one connection, one request at a time.
	lb, err := serveLoopback(srv)
	if err != nil {
		return nil, err
	}
	defer func() { _ = lb.shutdown(ctx) }() // nothing in flight by then; a stuck listener fails the process exit instead
	conn, err := dialRaw(lb.addr)
	if err != nil {
		return nil, err
	}
	defer conn.close()
	var rtErr error // the first failed round trip, checked after each pass
	roundTrip := func(c *rawClient, raw []byte) {
		if status, _, err := c.do(raw); rtErr == nil && (err != nil || status/100 != 2) {
			rtErr = fmt.Errorf("round trip: status %d: %w", status, err)
		}
	}
	runtime.GC()
	for p, o := range probes {
		dur[layerSocket][p] = tr.call(id(layerSocket, p), 0, p, "socket.search", func() { roundTrip(conn, o.req) })
	}
	v["http.socket_us"] = diffMedianUS(dur[layerSocket], dur[layerServer])

	// Tracing overhead at the workload's own outermost boundary: every
	// probe is issued there twice more, once the way the onion issues it
	// (a span, and on the engine an obs.Trace in the context) and once
	// bare, the order alternating from probe to probe. The two totals are
	// compared: SearchCtx's goroutine hand-off makes single calls bimodal
	// (the second P awake or parked), and a median picks a mode.
	call := func(c context.Context, o *op) { roundTrip(conn, o.req) }
	if sz.conns == 0 {
		call = func(c context.Context, o *op) { _, _ = eng.SearchCtx(c, o.iv.Start, o.iv.End, o.terms[0]...) } // ctx never fires
	}
	var withTrace, bare time.Duration
	runtime.GC()
	for p, o := range probes {
		for k := 0; k < 2; k++ {
			if (k == 0) == (p%2 == 0) {
				c, done := traced("search")
				withTrace += tr.call(0, 0, p, "trace.overhead", func() { call(c, o) })
				done()
			} else {
				s := time.Now()
				call(ctx, o)
				bare += time.Since(s)
			}
		}
	}
	v["trace.overhead_pct"] = 100 * (float64(withTrace)/float64(bare) - 1)

	// The part of a round trip no change to this repository can move:
	// the same client against a handler that does nothing, and the
	// client against a connection that answers from memory.
	null, err := serveLoopback(nullHandler)
	if err != nil {
		return nil, err
	}
	defer func() { _ = null.shutdown(ctx) }() // as above
	nconn, err := dialRaw(null.addr)
	if err != nil {
		return nil, err
	}
	defer nconn.close()
	floor := make([]time.Duration, 2000)
	for i := range floor {
		floor[i] = tr.call(0, 0, i, "http.floor", func() { roundTrip(nconn, probes[0].req) })
	}
	v["http.floor_us"] = medianDurUS(floor)
	canned := newRawClient(&cannedConn{reply: []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 24\r\n\r\n{\"count\":0,\"hits\":null}\n")})
	const perSample = 100
	self := make([]float64, 100)
	for i := range self {
		d := tr.call(0, 0, i, "client.self", func() {
			for j := 0; j < perSample; j++ {
				roundTrip(canned, probes[0].req)
			}
		})
		self[i] = us(d) / perSample
	}
	v["client.self_us"] = median(self)
	if rtErr != nil {
		return nil, rtErr
	}

	// Write path and maintenance, last: they change the engine.
	searchAll := func(name string) []time.Duration {
		ds := make([]time.Duration, np)
		runtime.GC()
		for p, o := range probes {
			ds[p] = tr.call(0, 0, p, name, func() { eng.Search(o.iv.Start, o.iv.End, o.terms[0]...) })
		}
		return ds
	}
	clean := searchAll("maint.clean")
	var insertDur, deleteDur []time.Duration
	var ids []model.ObjectID
	for i := range in.inserts {
		o := &in.inserts[i]
		insertDur = append(insertDur, tr.call(0, 0, i, "engine.insert", func() { ids = append(ids, eng.Insert(o.iv.Start, o.iv.End, o.terms[0]...)) }))
	}
	v["engine.insert_us"] = medianDurUS(insertDur)
	v["maint.memtable_tax_us"] = diffMedianUS(searchAll("maint.memtable"), clean)
	for i, id := range ids {
		deleteDur = append(deleteDur, tr.call(0, 0, i, "engine.delete", func() { err = eng.Delete(id) }))
		if err != nil {
			return nil, err
		}
	}
	v["engine.delete_us"] = medianDurUS(deleteDur)
	var st temporalir.CompactionStats
	tr.call(0, 0, 0, "maint.compact", func() { st, err = eng.Compact(ctx) })
	if err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	v["maint.compact_copy_ms"], v["maint.compact_build_ms"], v["maint.compact_swap_ms"] = ms(st.LastCopy), ms(st.LastBuild), ms(st.LastSwap)
	clean = searchAll("maint.clean")
	for id := 0; id < len(in.base.Objects); id += 10 {
		if err := eng.Delete(model.ObjectID(id)); err != nil {
			return nil, err
		}
	}
	v["maint.tombstone_tax_us"] = diffMedianUS(searchAll("maint.tombstones"), clean)
	insertDur = insertDur[:0]
	for i := range in.inserts {
		d, _, err := handle("server.insert", i, 0, 0, in.inserts[i].req)
		if err != nil {
			return nil, err
		}
		insertDur = append(insertDur, d)
	}
	v["server.insert_handler_us"] = medianDurUS(insertDur)

	res.Attempted = int64(len(tr.spans))
	res.Notes["probes"] = np
	res.Notes["spans"] = len(tr.spans)
	return res, tr.write(filepath.Join(outDir, "trace-"+sz.name+".jsonl"))
}
