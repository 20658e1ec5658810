// Package encoding provides a compact binary on-disk format for
// collections, so cmd/irgen can materialize datasets once and
// cmd/irbench / cmd/irquery can reload them. The format is
// little-endian with varint-compressed deltas:
//
//	magic "TIRC" | version u8 | dictSize uvarint | count uvarint
//	per object: start varint (delta from previous start) |
//	            duration uvarint (points, mod 2^64) | nElems uvarint |
//	            elem deltas uvarint... (sorted elements, gap-encoded)
//
// Objects are sorted by start before writing, matching how archive
// systems ingest, and ids are re-assigned densely on load.
package encoding

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/model"
)

var magic = [4]byte{'T', 'I', 'R', 'C'}

const version = 1

// maxPrealloc caps slice preallocations driven by unvalidated varints
// in the header. A corrupt or adversarial file can claim any count; by
// capping the hint and growing through append, memory stays
// proportional to the bytes actually read instead of the bytes claimed,
// so a flipped header byte cannot commit a multi-GB allocation before
// the first object even decodes. Spill/reload paths feed
// operator-controlled files through Read, which makes this load-bearing.
const maxPrealloc = 1 << 16

// cappedCap bounds a claimed element count to the preallocation cap.
func cappedCap(claimed uint64) int {
	if claimed > maxPrealloc {
		return maxPrealloc
	}
	return int(claimed)
}

// Order returns the permutation Write applies: object indices in the
// order they are written (sorted by interval start). Callers that
// serialize per-object sidecar data next to a collection use it to
// write their tables in the same order.
func Order(c *model.Collection) []int {
	order := make([]int, len(c.Objects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return c.Objects[order[a]].Interval.Start < c.Objects[order[b]].Interval.Start
	})
	return order
}

// Write serializes the collection. The input is not mutated: objects are
// sorted by interval start into a scratch index first.
func Write(w io.Writer, c *model.Collection) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(c.DictSize)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(c.Objects))); err != nil {
		return err
	}
	order := Order(c)
	prevStart := int64(0)
	for _, oi := range order {
		o := &c.Objects[oi]
		if err := putVarint(int64(o.Interval.Start) - prevStart); err != nil {
			return err
		}
		prevStart = int64(o.Interval.Start)
		// The length in points, which wraps to 0 for the one interval of
		// 2^64 points; Read decodes 0 as that interval.
		if err := putUvarint(uint64(o.Interval.End-o.Interval.Start) + 1); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(o.Elems))); err != nil {
			return err
		}
		prev := uint64(0)
		for _, e := range o.Elems {
			if err := putUvarint(uint64(e) - prev); err != nil {
				return err
			}
			prev = uint64(e)
		}
	}
	return bw.Flush()
}

// Read deserializes a collection written by Write.
func Read(r io.Reader) (*model.Collection, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("encoding: reading magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("encoding: bad magic, not a TIRC file")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("encoding: unsupported version %d", ver)
	}
	dictSize, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("encoding: dict size: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("encoding: count: %w", err)
	}
	c := &model.Collection{DictSize: int(dictSize)}
	c.Objects = make([]model.Object, 0, cappedCap(count))
	prevStart := int64(0)
	for i := uint64(0); i < count; i++ {
		dStart, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("encoding: object %d start: %w", i, err)
		}
		start := prevStart + dStart
		prevStart = start
		dur, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("encoding: object %d duration: %w", i, err)
		}
		// An object ends at start+last, last = dur−1 in uint64 (so 0, the
		// wrapped length of [MinInt64, MaxInt64], reads as 2^64−1), which
		// must not pass MaxInt64 and wrap into an inverted interval on
		// corrupt input. The room above start, MaxInt64−start, fits a
		// uint64 for every start.
		last := dur - 1
		if last > uint64(math.MaxInt64)-uint64(start) {
			return nil, fmt.Errorf("encoding: object %d has implausible duration %d at start %d", i, dur, start)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("encoding: object %d nElems: %w", i, err)
		}
		// Elements are gap-encoded ascending ids below dictSize, so no
		// valid object can carry more of them than the dictionary holds —
		// reject before allocating rather than after reading.
		if n > dictSize {
			return nil, fmt.Errorf("encoding: object %d claims %d elements, dictionary has %d", i, n, dictSize)
		}
		elems := make([]model.ElemID, 0, cappedCap(n))
		prev := uint64(0)
		for k := uint64(0); k < n; k++ {
			gap, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("encoding: object %d elem %d: %w", i, k, err)
			}
			prev += gap
			if prev >= dictSize {
				return nil, fmt.Errorf("encoding: object %d elem %d out of dictionary", i, k)
			}
			elems = append(elems, model.ElemID(prev))
		}
		c.Objects = append(c.Objects, model.Object{
			ID:       model.ObjectID(i),
			Interval: model.NewInterval(start, start+int64(last)),
			Elems:    elems,
		})
	}
	return c, nil
}
