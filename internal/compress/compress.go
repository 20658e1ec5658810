// Package compress implements inverted-file compression — the extension
// the paper defers to future work (Section 7, citing Pibiri & Venturini's
// survey). Postings lists are stored as gap-encoded varints: ids are
// delta-coded (lists are id-sorted), interval starts are delta-coded
// against the previous start (archives ingest roughly chronologically, so
// gaps are small) and durations are stored directly. A compressed tIF
// answers the same queries as the plain one by decoding on the fly; the
// ablation benchmark quantifies the size/throughput trade.
package compress

import (
	"encoding/binary"

	"repro/internal/model"
	"repro/internal/postings"
)

// EncodeList compresses an id-sorted postings list.
func EncodeList(list []postings.Posting) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	prevID := uint64(0)
	prevStart := int64(0)
	for _, p := range list {
		n := binary.PutUvarint(tmp[:], uint64(p.ID)-prevID)
		buf = append(buf, tmp[:n]...)
		prevID = uint64(p.ID)
		n = binary.PutVarint(tmp[:], int64(p.Interval.Start)-prevStart)
		buf = append(buf, tmp[:n]...)
		prevStart = int64(p.Interval.Start)
		n = binary.PutUvarint(tmp[:], uint64(p.Interval.Duration()))
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

// DecodeList decompresses a full list (testing / rebuild path).
func DecodeList(buf []byte, n int) []postings.Posting {
	out := make([]postings.Posting, 0, n)
	it := NewIterator(buf)
	var p postings.Posting
	for it.Next(&p) {
		out = append(out, p)
	}
	return out
}

// Iterator streams a compressed list without materializing it.
type Iterator struct {
	buf       []byte
	pos       int
	prevID    uint64
	prevStart int64
}

// NewIterator starts decoding at the beginning of buf.
func NewIterator(buf []byte) *Iterator {
	return &Iterator{buf: buf}
}

// Next decodes one posting into p, reporting false at the end of the
// list (or on corruption, which only truncates).
func (it *Iterator) Next(p *postings.Posting) bool {
	if it.pos >= len(it.buf) {
		return false
	}
	gap, n := binary.Uvarint(it.buf[it.pos:])
	if n <= 0 {
		return false
	}
	it.pos += n
	dStart, n := binary.Varint(it.buf[it.pos:])
	if n <= 0 {
		return false
	}
	it.pos += n
	dur, n := binary.Uvarint(it.buf[it.pos:])
	// Reject corrupt durations outright: zero, implausibly large, or
	// overflowing the end computation (defense against truncated or
	// bit-flipped buffers).
	if n <= 0 || dur == 0 || dur > 1<<42 {
		return false
	}
	it.pos += n
	it.prevID += gap
	it.prevStart += dStart
	if it.prevStart > (1<<62) || it.prevStart < -(1<<62) {
		return false
	}
	p.ID = model.ObjectID(it.prevID)
	p.Interval = model.NewInterval(model.Timestamp(it.prevStart), model.Timestamp(it.prevStart+int64(dur)-1))
	return true
}

// Reset rewinds the iterator.
func (it *Iterator) Reset() {
	it.pos, it.prevID, it.prevStart = 0, 0, 0
}
