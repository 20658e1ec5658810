package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	temporalir "repro"
)

// Hot response bodies — search, top-k, timeline, batch, insert, delete,
// errors — append themselves into a pooled buffer without reflection;
// encode_test.go pins each byte for byte to encoding/json of the maps
// they replaced. Cold admin replies are typed structs (writeJSON).

// reply is a hot response body.
type reply interface{ appendJSON(b []byte) []byte }

// idsReply is an unranked GET /search.
type idsReply struct{ ids []temporalir.ObjectID }

func (r idsReply) appendJSON(b []byte) []byte {
	return append(appendList(appendCount(b, len(r.ids), "hits"), r.ids, len(r.ids) == 0, appendHitID), '}')
}

// topKReply is a ranked GET /search (k set).
type topKReply struct{ hits []temporalir.ScoredResult }

func (r topKReply) appendJSON(b []byte) []byte {
	return append(appendList(appendCount(b, len(r.hits), "hits"), r.hits, len(r.hits) == 0, appendScoredHit), '}')
}

// timelineReply is GET /timeline.
type timelineReply struct{ buckets []temporalir.TimelineBucket }

func (r timelineReply) appendJSON(b []byte) []byte {
	return append(appendList(append(b, `{"buckets":`...), r.buckets, r.buckets == nil, appendBucket), '}')
}

// batchReply is POST /search/batch: a row per query, its ids or its
// error. partial is set when any row failed.
type batchReply struct {
	rows    []temporalir.Result
	partial bool
}

func (r batchReply) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"count":`...), int64(len(r.rows)), 10)
	if r.partial {
		b = append(b, `,"partial":true`...)
	}
	return append(appendList(append(b, `,"results":`...), r.rows, false, appendBatchRow), '}')
}

// idReply is POST /objects ({"id":N}) and DELETE /objects/{id} ({"deleted":N}).
type idReply struct {
	key string
	id  temporalir.ObjectID
}

func (r idReply) appendJSON(b []byte) []byte {
	b = append(append(append(b, `{"`...), r.key...), `":`...)
	return append(appendID(b, r.id), '}')
}

// errorReply is every error; a rejection carries its retry hint in
// milliseconds too.
type errorReply struct {
	msg     string
	retryMS int64 // set only on a rejection; a hint is never below 25ms
}

func (r errorReply) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"error":`...), r.msg)
	if r.retryMS > 0 {
		b = strconv.AppendInt(append(b, `,"retry_after_ms":`...), r.retryMS, 10)
	}
	return append(b, '}')
}

// appendCount opens a reply with its count and the key of its list.
func appendCount(b []byte, n int, key string) []byte {
	b = strconv.AppendInt(append(b, `{"count":`...), int64(n), 10)
	return append(append(append(b, `,"`...), key...), `":`...)
}

// appendList appends vs as a JSON array, or null where encoding/json met
// a nil slice.
func appendList[T any](b []byte, vs []T, null bool, elem func([]byte, T) []byte) []byte {
	if null {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, v)
	}
	return append(b, ']')
}

func appendID(b []byte, id temporalir.ObjectID) []byte { return strconv.AppendUint(b, uint64(id), 10) }
func appendInt(b []byte, v int) []byte                 { return strconv.AppendInt(b, int64(v), 10) }

func appendHitID(b []byte, id temporalir.ObjectID) []byte {
	return append(appendID(append(b, `{"id":`...), id), '}')
}

func appendScoredHit(b []byte, h temporalir.ScoredResult) []byte {
	b = appendID(append(b, `{"id":`...), h.ID)
	return append(appendFloat(append(b, `,"score":`...), h.Score), '}')
}

func appendBucket(b []byte, t temporalir.TimelineBucket) []byte {
	b = strconv.AppendInt(append(b, `{"Start":`...), t.Start, 10)
	b = strconv.AppendInt(append(b, `,"End":`...), t.End, 10)
	b = appendInt(append(b, `,"Count":`...), t.Count)
	return append(strconv.AppendInt(append(b, `,"Mass":`...), t.Mass, 10), '}')
}

func appendBatchRow(b []byte, row temporalir.Result) []byte {
	if row.Err == nil {
		return append(appendList(append(b, `{"hits":`...), row.IDs, row.IDs == nil, appendID), '}')
	}
	b = append(b, `{"hits":null`...)
	if msg := row.Err.Error(); msg != "" {
		b = appendString(append(b, `,"error":`...), msg)
	}
	return append(b, '}')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest form that round-trips, in exponent form below 1e-6 and from
// 1e21 up, the leading zero of a two-digit negative exponent dropped
// (1e-7, not 1e-07). Scores are finite: checkInterval keeps the query
// interval's length, their divisor, in range.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string escaped exactly as
// encoding/json escapes it (HTML-safe). Printable ASCII free of quotes,
// backslashes and HTML metacharacters — nearly every error message — is
// copied; anything else is left to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// bufPool recycles reply buffers; one past maxPooledBuf is dropped.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 256 << 10

// send writes a hot reply in one Write. Framing is left to net/http, as
// it was with encoding/json: it sizes a reply of up to 2 kB itself and
// chunks a longer one.
func send[R reply](w http.ResponseWriter, status int, r R) {
	bp := bufPool.Get().(*[]byte)
	b := append(r.appendJSON((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b) // a failed write means the client went away
	if cap(b) <= maxPooledBuf {
		*bp = b
		bufPool.Put(bp)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
