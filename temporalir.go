// Package temporalir is a library for time-travel information-retrieval
// queries: given a collection of objects, each carrying a lifespan
// interval and a set of descriptive elements, it answers queries that
// combine a time interval of interest with a set of required elements —
// returning every object whose lifespan overlaps the query interval and
// whose description contains all query elements.
//
// The package implements the complete index family studied in Rauch &
// Bouros, "Fast Indexing for Temporal Information Retrieval" (SIGMOD):
//
//	TIF             the base temporal inverted file (Algorithm 1)
//	TIFSlicing      tIF + time-domain slicing [Berberich et al.]
//	TIFSharding     tIF + staircase sharding [Anand et al.]
//	TIFHintBinary   tIF + per-element HINT, candidate probes (Alg. 3)
//	TIFHintMerge    tIF + per-element HINT, merge intersections (Alg. 4)
//	TIFHintSlicing  the dual-copy hybrid (Section 3.2)
//	IRHintPerf      irHINT, performance variant (Section 4.1) — the
//	                paper's headline contribution
//	IRHintSize      irHINT, size variant (Section 4.2)
//
// All indices return exactly the same result sets; they differ in query
// throughput, memory footprint and update cost. Use NewIndex (or a typed
// constructor) when objects are already modeled as element-id sets, or the
// Builder/Engine pair for a string-terms convenience layer.
package temporalir

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/maint"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/slicing"
	"repro/internal/tif"
	"repro/internal/tifhint"
)

// Core data-model types, aliased from the internal model package so
// values flow between the public API and internal machinery without
// conversion.
type (
	// Timestamp is a point in the application's time domain.
	Timestamp = model.Timestamp
	// ObjectID identifies an object in a collection.
	ObjectID = model.ObjectID
	// ElemID identifies a descriptive element (term, track, product...).
	ElemID = model.ElemID
	// Interval is a closed time interval [Start, End].
	Interval = model.Interval
	// Object is an <id, interval, elements> triple.
	Object = model.Object
	// Query pairs an interval of interest with required elements.
	Query = model.Query
	// Collection is an ordered set of objects over a shared dictionary.
	Collection = model.Collection
)

// NewInterval returns [start, end], panicking if start > end.
func NewInterval(start, end Timestamp) Interval { return model.NewInterval(start, end) }

// Index is the common surface of every index in the family. Query returns
// matching object ids (order unspecified; use SortIDs for a canonical
// order), and nil for a query without elements, which the Engine answers
// by a scan. Insert adds an object with a fresh id; Delete tombstones an
// object given its full record (indices locate entries by interval and
// id, as the paper's logical-deletion scheme does).
type Index = model.Index

// SortIDs orders a result set ascending in place.
func SortIDs(ids []ObjectID) { model.SortIDs(ids) }

// Method selects an index implementation.
type Method string

// The eight implementations benchmarked in the paper's evaluation.
const (
	TIF            Method = "tif"
	TIFSlicing     Method = "tif+slicing"
	TIFSharding    Method = "tif+sharding"
	TIFHintBinary  Method = "tif+hint/binary"
	TIFHintMerge   Method = "tif+hint/merge"
	TIFHintSlicing Method = "tif+hint+slicing"
	IRHintPerf     Method = "irhint/perf"
	IRHintSize     Method = "irhint/size"
)

// Routed is the adaptive meta-method: it keeps several of the above
// builds (Options.RoutedMethods; a tuned default otherwise) and routes
// each query to the one a learned cost model over the paper's Section 5
// regimes — interval extent, description size, element frequency —
// expects to be fastest. Result sets are identical to every other
// method; only per-query latency differs.
const Routed Method = "routed"

// Methods lists every implementation in the order the paper's tables use.
func Methods() []Method {
	return []Method{
		TIFSlicing, TIFSharding,
		TIFHintBinary, TIFHintMerge, TIFHintSlicing,
		IRHintPerf, IRHintSize,
	}
}

// Options tunes index construction. Zero values select the paper's tuned
// defaults (Section 5.2): 50 slices, m=10 for the binary variant, m=5 for
// merge/hybrid, cost-model m for irHINT.
type Options struct {
	// M fixes the HINT hierarchy bits where applicable.
	M int
	// Slices sets the slice count for TIFSlicing and TIFHintSlicing.
	Slices int
	// RoutedMethods selects the sub-builds the Routed meta-method keeps
	// and routes across (nil = DefaultRoutedMethods). Ignored by every
	// other method. Routed itself is rejected as an entry.
	RoutedMethods []Method
}

// NewIndex builds the selected index over a collection.
func NewIndex(m Method, c *Collection, opts Options) (Index, error) {
	switch m {
	case TIF:
		return tif.New(c), nil
	case TIFSlicing:
		var o []slicing.Option
		if opts.Slices > 0 {
			o = append(o, slicing.WithSlices(opts.Slices))
		}
		return slicing.New(c, o...), nil
	case TIFSharding:
		return sharding.New(c), nil
	case TIFHintBinary:
		return tifhint.NewBinary(c, hintOpts(opts)...), nil
	case TIFHintMerge:
		return tifhint.NewMerge(c, hintOpts(opts)...), nil
	case TIFHintSlicing:
		o := hintOpts(opts)
		if opts.Slices > 0 {
			o = append(o, tifhint.WithSlices(opts.Slices))
		}
		return tifhint.NewHybrid(c, o...), nil
	case IRHintPerf:
		return core.NewPerf(c, irOpts(opts)...), nil
	case IRHintSize:
		return core.NewSize(c, irOpts(opts)...), nil
	case Routed:
		return newRoutedIndex(c, opts)
	default:
		return nil, fmt.Errorf("temporalir: unknown method %q", m)
	}
}

func hintOpts(opts Options) []tifhint.Option {
	var o []tifhint.Option
	if opts.M > 0 {
		o = append(o, tifhint.WithM(opts.M))
	}
	return o
}

func irOpts(opts Options) []core.Option {
	var o []core.Option
	if opts.M > 0 {
		o = append(o, core.WithM(opts.M))
	}
	return o
}

// Generational-store surface, aliased from internal/maint so callers
// configure compaction without importing internal packages.
type (
	// CompactionStats reports the engine's generational state and
	// compaction history; see Engine.CompactStats.
	CompactionStats = maint.CompactionStats
	// CompactionPolicy configures automatic background compaction; see
	// Engine.SetCompactionPolicy. The zero value disables it.
	CompactionPolicy = maint.Policy
)

// ErrCompactionRunning is the error Engine.Compact wraps (test it with
// errors.Is) when a store's compaction (manual or policy-triggered) is
// already in flight.
var ErrCompactionRunning = maint.ErrCompactionRunning

// JoinPair is one temporal-join result.
type JoinPair = join.Pair

// Join pairs objects across two collections whose lifespans overlap and
// whose descriptions share at least minShared elements (0 = pure interval
// join) — the temporal IR join the paper lists as future work. The larger
// side is HINT-indexed, the smaller probes it.
func Join(left, right *Collection, minShared int) []JoinPair {
	return join.Join(left, right, join.Config{MinShared: minShared})
}

// SelfJoin pairs objects within one collection the same way, emitting
// each unordered pair once (Left < Right).
func SelfJoin(c *Collection, minShared int) []JoinPair {
	return join.SelfJoin(c, join.Config{MinShared: minShared})
}
