package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	temporalir "repro"
)

// The bodies as the handlers built them before the append encoder: maps
// (encoding/json writes their keys sorted) over the old row structs,
// written by json.Encoder. Every hot reply must match them byte for byte.

type oldSearchHit struct {
	ID    temporalir.ObjectID `json:"id"`
	Score *float64            `json:"score,omitempty"`
}

type oldBatchRow struct {
	Hits  []temporalir.ObjectID `json:"hits"`
	Error string                `json:"error,omitempty"`
}

func oldIDs(ids []temporalir.ObjectID) any {
	var hits []oldSearchHit
	for _, id := range ids {
		hits = append(hits, oldSearchHit{ID: id})
	}
	return map[string]any{"count": len(hits), "hits": hits}
}

func oldTopK(res []temporalir.ScoredResult) any {
	var hits []oldSearchHit
	for _, r := range res {
		score := r.Score
		hits = append(hits, oldSearchHit{ID: r.ID, Score: &score})
	}
	return map[string]any{"count": len(hits), "hits": hits}
}

func oldTimeline(tl []temporalir.TimelineBucket) any {
	return map[string]any{"buckets": tl}
}

func oldBatch(results []temporalir.Result) any {
	rows := make([]oldBatchRow, len(results))
	completed := 0
	for i, res := range results {
		if res.Err != nil {
			rows[i] = oldBatchRow{Error: res.Err.Error()}
			continue
		}
		completed++
		rows[i] = oldBatchRow{Hits: res.IDs}
	}
	body := map[string]any{"count": len(rows), "results": rows}
	if completed < len(rows) {
		body["partial"] = true
	}
	return body
}

func oldError(msg string) any { return map[string]string{"error": msg} }

func oldRetryError(msg string, ms int64) any {
	return map[string]any{"error": msg, "retry_after_ms": ms}
}

func batchOf(results []temporalir.Result) batchReply {
	partial := false
	for _, r := range results {
		partial = partial || r.Err != nil
	}
	return batchReply{rows: results, partial: partial}
}

// checkSame asserts that send writes the body encoding/json wrote for
// the old shape, with the same content type.
func checkSame[R reply](t *testing.T, name string, r R, old any) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(old); err != nil {
		t.Fatalf("%s: encoding/json: %v", name, err)
	}
	rec := httptest.NewRecorder()
	send(rec, http.StatusOK, r)
	if got := rec.Body.String(); got != want.String() {
		t.Fatalf("%s:\n got %q\nwant %q", name, got, want.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", name, ct)
	}
}

// scores covers every branch of appendFloat: zero and negative zero,
// the 'f' range and both sides of its bounds, two- and three-digit
// exponents, subnormals.
var scores = []float64{
	0, math.Copysign(0, -1), 1, 0.5, 0.1, 2.0 / 3, 123456.789, 1e-6, 9.99e-7, 1e-7, 1.5e-9,
	-3.2e-8, 1e-100, 5e-324, math.SmallestNonzeroFloat64 * 3, 1e20, 999999999999999999999.0,
	1e21, 1.23e45, math.MaxFloat64, -1e21,
}

func TestReplyMatchesEncodingJSON(t *testing.T) {
	const maxID = temporalir.ObjectID(math.MaxUint32)
	ids := []temporalir.ObjectID{0, 1, 42, maxID - 1, maxID}
	var scored []temporalir.ScoredResult
	for i, sc := range scores {
		scored = append(scored, temporalir.ScoredResult{ID: maxID - temporalir.ObjectID(i), Score: sc})
	}
	buckets := []temporalir.TimelineBucket{
		{Start: math.MinInt64 + 1, End: -1, Count: 0, Mass: 0},
		{Start: 0, End: 99, Count: 3, Mass: math.MaxInt64},
	}

	checkSame(t, "ids nil", idsReply{}, oldIDs(nil))
	checkSame(t, "ids empty", idsReply{ids: []temporalir.ObjectID{}}, oldIDs(nil))
	checkSame(t, "ids", idsReply{ids: ids}, oldIDs(ids))
	checkSame(t, "topk nil", topKReply{}, oldTopK(nil))
	checkSame(t, "topk", topKReply{hits: scored}, oldTopK(scored))
	checkSame(t, "timeline nil", timelineReply{}, oldTimeline(nil))
	checkSame(t, "timeline empty", timelineReply{buckets: []temporalir.TimelineBucket{}}, oldTimeline([]temporalir.TimelineBucket{}))
	checkSame(t, "timeline", timelineReply{buckets: buckets}, oldTimeline(buckets))

	rows := []temporalir.Result{
		{IDs: ids},
		{},
		{IDs: []temporalir.ObjectID{}},
		{Err: context.DeadlineExceeded},
		{Err: errors.New(`bad <row> & "quote" \ tab	nl` + "\n\x01 é \u2028 \xff")},
		{Err: errors.New("")},
	}
	checkSame(t, "batch complete", batchOf(rows[:3]), oldBatch(rows[:3]))
	checkSame(t, "batch partial", batchOf(rows), oldBatch(rows))
	checkSame(t, "batch empty", batchOf(nil), oldBatch(nil))

	checkSame(t, "insert", idReply{key: "id", id: maxID}, map[string]any{"id": maxID})
	checkSame(t, "delete", idReply{key: "deleted", id: maxID}, map[string]any{"deleted": maxID})
	for _, msg := range []string{"", "query timed out", `bad k: "x"`, "<script>&amp;</script>", "naïve \u2029 \x00 \xc3"} {
		checkSame(t, "error "+msg, errorReply{msg: msg}, oldError(msg))
		checkSame(t, "retry "+msg, errorReply{msg: msg, retryMS: 25}, oldRetryError(msg, 25))
	}
}

// TestReplyPropertyMatchesEncodingJSON draws random replies of every hot
// shape from a fixed seed and checks each against encoding/json.
func TestReplyPropertyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	randIDs := func() []temporalir.ObjectID {
		if rng.Intn(8) == 0 {
			return nil
		}
		out := make([]temporalir.ObjectID, rng.Intn(40))
		for i := range out {
			if rng.Intn(4) == 0 {
				out[i] = math.MaxUint32 - temporalir.ObjectID(rng.Intn(3))
			} else {
				out[i] = temporalir.ObjectID(rng.Uint32())
			}
		}
		return out
	}
	randScore := func() float64 {
		switch rng.Intn(4) {
		case 0: // any finite bit pattern: every exponent, subnormals
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		case 1: // around the exponent-form bounds
			return math.Ldexp(rng.Float64(), -20-rng.Intn(40)) * float64(1-2*rng.Intn(2))
		case 2:
			return scores[rng.Intn(len(scores))]
		default: // what ranking produces: [0, 1]
			return rng.Float64()
		}
	}
	randString := func() string {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			if rng.Intn(3) == 0 {
				b[i] = byte(rng.Intn(256))
			} else {
				b[i] = byte(' ' + rng.Intn(95))
			}
		}
		return string(b)
	}
	for iter := 0; iter < 300; iter++ {
		name := fmt.Sprintf("iteration %d", iter)
		ids := randIDs()
		checkSame(t, name+" ids", idsReply{ids: ids}, oldIDs(ids))

		var scored []temporalir.ScoredResult
		for i, n := 0, rng.Intn(30); i < n; i++ {
			scored = append(scored, temporalir.ScoredResult{ID: temporalir.ObjectID(rng.Uint32()), Score: randScore()})
		}
		checkSame(t, name+" topk", topKReply{hits: scored}, oldTopK(scored))

		var tl []temporalir.TimelineBucket
		for i, n := 0, rng.Intn(12); i < n; i++ {
			tl = append(tl, temporalir.TimelineBucket{Start: rng.Int63() - rng.Int63(), End: rng.Int63(), Count: rng.Int(), Mass: rng.Int63()})
		}
		checkSame(t, name+" timeline", timelineReply{buckets: tl}, oldTimeline(tl))

		rows := make([]temporalir.Result, rng.Intn(10))
		for i := range rows {
			if rng.Intn(4) == 0 {
				rows[i] = temporalir.Result{Err: errors.New(randString())}
			} else {
				rows[i] = temporalir.Result{IDs: randIDs()}
			}
		}
		checkSame(t, name+" batch", batchOf(rows), oldBatch(rows))

		id := temporalir.ObjectID(rng.Uint32())
		checkSame(t, name+" insert", idReply{key: "id", id: id}, map[string]any{"id": id})
		checkSame(t, name+" delete", idReply{key: "deleted", id: id}, map[string]any{"deleted": id})
		msg, ms := randString(), 1+rng.Int63n(math.MaxInt64-1) // a retry hint is never zero
		checkSame(t, name+" error", errorReply{msg: msg}, oldError(msg))
		checkSame(t, name+" retry", errorReply{msg: msg, retryMS: ms}, oldRetryError(msg, ms))
	}
}
