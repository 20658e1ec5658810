package temporalir

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/dict"
	"repro/internal/encoding"
)

// Engine persistence: a dictionary section, the compact collection
// encoding of internal/encoding, and (since version 2) the external-id
// identity section. Logical deletions are folded in at save time
// (tombstoned objects are not written). Version 2 snapshots preserve
// object identity across a round trip: every live object's stable
// external id and the store's next-id counter are serialized, so ids
// handed out before a Save stay valid after a Load and new inserts
// continue the same id sequence — an engine that is saved, dropped and
// reloaded is indistinguishable to clients. Version 1 snapshots (which
// re-assigned dense ids on load) are still accepted.

var engineMagic = [4]byte{'T', 'I', 'R', 'E'}

const (
	engineVersion   = 2
	engineVersionV1 = 1
)

// maxLoadPrealloc caps slice preallocations driven by unvalidated
// snapshot varints. A corrupt or adversarial header can claim any
// count; allocations grow incrementally past this bound instead, so a
// bad byte costs at most one modest slice before decoding fails. The
// spill/reload path feeds operator-controlled files into LoadEngine,
// which makes this load-bearing, not defensive polish.
const maxLoadPrealloc = 1 << 16

// cappedCap bounds a claimed element count to the preallocation cap.
func cappedCap(claimed uint64) int {
	if claimed > maxLoadPrealloc {
		return maxLoadPrealloc
	}
	return int(claimed)
}

// Save writes the engine's live objects, dictionary and id-identity
// section. The index itself is not serialized — it is rebuilt on load,
// which is both simpler and, for every method in the family, fast
// relative to I/O. The snapshot is consistent: it serializes one
// generation per store, each taken with a single atomic load, so
// concurrent inserts, deletes and compactions never tear it. The stores'
// live objects merge back into global insertion order with their stable
// ids, so the file does not depend on the store count.
func (e *Engine) Save(w io.Writer) error {
	gens := e.snapshots()
	// Read after the snapshots: the dictionary only grows and every
	// element id in gens was interned before its generation was
	// published, so the terms read now cover every saved object, and the
	// allocator is past every id the snapshots hold.
	e.dmu.RLock()
	terms := e.dict.TermsSnapshot()
	dictSize := e.dict.Len()
	e.dmu.RUnlock()
	next := e.alloc.Next()

	type liveObj struct {
		ext ObjectID
		obj *Object
	}
	var all []liveObj
	for _, g := range gens {
		coll := g.Coll()
		for i := range coll.Objects {
			if !g.Tombstoned(ObjectID(i)) {
				all = append(all, liveObj{ext: g.ExternalID(ObjectID(i)), obj: &coll.Objects[i]})
			}
		}
	}
	if len(gens) > 1 {
		sort.Slice(all, func(a, b int) bool { return all[a].ext < all[b].ext })
	}
	live := &Collection{Objects: make([]Object, len(all)), DictSize: dictSize}
	ext := make([]ObjectID, len(all))
	for i, lo := range all {
		live.Objects[i] = Object{ID: ObjectID(i), Interval: lo.obj.Interval, Elems: lo.obj.Elems}
		ext[i] = lo.ext
	}
	return writeSnapshot(w, terms, live, ext, next)
}

// writeSnapshot serializes one snapshot: dictionary terms, the live
// collection (dense ids, insertion order) and its parallel external-id
// table, then the next-id counter.
func writeSnapshot(w io.Writer, terms []string, live *Collection, ext []ObjectID, next ObjectID) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(engineMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(engineVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(terms))); err != nil {
		return err
	}
	for _, t := range terms {
		if err := putUvarint(uint64(len(t))); err != nil {
			return err
		}
		if _, err := bw.WriteString(t); err != nil {
			return err
		}
	}
	if err := encoding.Write(bw, live); err != nil {
		return err
	}
	// Identity section: one external id per object, in the order the
	// objects were just encoded (encoding.Write permutes by interval
	// start; encoding.Order is that permutation, so the table stays
	// parallel to the collection as read back). The count is written
	// again as a consistency check, then the next id the store will
	// assign — exactly, not max+1, so tail deletions never cause id
	// reuse after a reload.
	if err := putUvarint(uint64(len(ext))); err != nil {
		return err
	}
	for _, oi := range encoding.Order(live) {
		if err := putUvarint(uint64(ext[oi])); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(next)); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadEngine reads a snapshot written by Save into a one-store engine
// and rebuilds the requested index over it. Version-2 snapshots restore
// the saved external-id assignment; version-1 snapshots fall back to
// dense identity ids.
func LoadEngine(r io.Reader, m Method, opts Options) (*Engine, error) {
	return LoadSharded(r, m, opts, ShardedOptions{Shards: 1})
}

// LoadSharded is LoadEngine with so's store layout: the snapshot's
// objects are re-partitioned across the stores. With PartitionTimeRange
// and zero Bounds the domain derives from the loaded data, matching what
// BuildSharded would have chosen.
func LoadSharded(r io.Reader, m Method, opts Options, so ShardedOptions) (*Engine, error) {
	d, coll, ext, next, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	return buildEngine(d, coll, m, opts, so, ext, next)
}

// decodeSnapshot reads and validates a TIRE snapshot: the dictionary,
// the collection restored to insertion order (dense ids), and — for
// version 2 — the strictly ascending external-id table plus next-id
// counter (ext is nil for version 1). All counts are bounds-checked
// before driving allocations.
func decodeSnapshot(r io.Reader) (*dict.Dictionary, *Collection, []ObjectID, ObjectID, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("temporalir: reading engine magic: %w", err)
	}
	if magic != engineMagic {
		return nil, nil, nil, 0, errors.New("temporalir: not an engine snapshot")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if ver != engineVersion && ver != engineVersionV1 {
		return nil, nil, nil, 0, fmt.Errorf("temporalir: unsupported snapshot version %d", ver)
	}
	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("temporalir: term count: %w", err)
	}
	const maxTermLen = 1 << 16
	// The claimed count is unvalidated input: cap the preallocation and
	// let append grow past it, so a corrupt header cannot commit a
	// multi-GB allocation before the first term even decodes.
	terms := make([]string, 0, cappedCap(nTerms))
	for i := uint64(0); i < nTerms; i++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("temporalir: term %d length: %w", i, err)
		}
		if l > maxTermLen {
			return nil, nil, nil, 0, fmt.Errorf("temporalir: term %d implausibly long (%d)", i, l)
		}
		raw := make([]byte, l)
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("temporalir: term %d: %w", i, err)
		}
		terms = append(terms, string(raw))
	}
	coll, err := encoding.Read(br)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("temporalir: collection: %w", err)
	}
	d := dict.FromTerms(terms)
	if d.Len() < coll.DictSize {
		return nil, nil, nil, 0, fmt.Errorf("temporalir: dictionary (%d terms) smaller than collection element space (%d)",
			d.Len(), coll.DictSize)
	}
	for i := range coll.Objects {
		d.AddElems(coll.Objects[i].Elems)
	}
	if ver == engineVersionV1 {
		return d, coll, nil, 0, nil
	}
	ext, next, err := readIdentity(br, len(coll.Objects))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	// Restore the original internal order. The collection was written
	// start-sorted; re-sorting by external id (strictly ascending in the
	// original store, i.e. insertion order) reconstructs it and yields
	// the ascending table the generational store requires.
	ord := make([]int, len(ext))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return ext[ord[a]] < ext[ord[b]] })
	objs := make([]Object, len(ord))
	sorted := make([]ObjectID, len(ord))
	for i, oi := range ord {
		o := coll.Objects[oi]
		o.ID = ObjectID(i)
		objs[i] = o
		sorted[i] = ext[oi]
		if i > 0 && sorted[i] <= sorted[i-1] {
			return nil, nil, nil, 0, fmt.Errorf("temporalir: duplicate external id %d in identity table", sorted[i])
		}
	}
	if n := len(sorted); n > 0 && sorted[n-1] >= next {
		return nil, nil, nil, 0, fmt.Errorf("temporalir: next id %d not past last external id %d", next, sorted[n-1])
	}
	coll.Objects = objs
	return d, coll, sorted, next, nil
}

// readIdentity decodes the version-2 identity section: one external id
// per object in written order, then the next-id counter. Ordering and
// uniqueness are validated by the caller after re-sorting.
func readIdentity(br *bufio.Reader, objects int) ([]ObjectID, ObjectID, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("temporalir: identity count: %w", err)
	}
	if n != uint64(objects) {
		return nil, 0, fmt.Errorf("temporalir: identity table covers %d objects, collection has %d", n, objects)
	}
	ext := make([]ObjectID, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("temporalir: identity entry %d: %w", i, err)
		}
		if v > 1<<32-1 {
			return nil, 0, fmt.Errorf("temporalir: identity entry %d overflows id space", i)
		}
		ext = append(ext, ObjectID(v))
	}
	rawNext, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("temporalir: next id: %w", err)
	}
	return ext, ObjectID(rawNext), nil
}
