package hint

import (
	"math"

	"repro/internal/model"
	"repro/internal/postings"
)

// Relation is one of Allen's thirteen interval relations. The HINT journal
// version ([20] in the paper) extends range queries to all of them; this
// file reproduces that capability: each relation is answered by scoping a
// (cheap) overlap traversal to the smallest candidate range and applying
// the exact endpoint predicate.
type Relation int

// Allen's interval algebra, stated for a stored interval i against the
// query interval q.
const (
	// RelEquals: i.st == q.st && i.end == q.end
	RelEquals Relation = iota
	// RelBefore: i.end < q.st (i entirely precedes q)
	RelBefore
	// RelAfter: i.st > q.end
	RelAfter
	// RelMeets: i.end == q.st
	RelMeets
	// RelMetBy: i.st == q.end
	RelMetBy
	// RelOverlaps: i.st < q.st && q.st <= i.end && i.end < q.end
	RelOverlaps
	// RelOverlappedBy: q.st < i.st && i.st <= q.end && q.end < i.end
	RelOverlappedBy
	// RelStarts: i.st == q.st && i.end < q.end
	RelStarts
	// RelStartedBy: i.st == q.st && i.end > q.end
	RelStartedBy
	// RelDuring: i.st > q.st && i.end < q.end
	RelDuring
	// RelContains: i.st < q.st && i.end > q.end
	RelContains
	// RelFinishes: i.end == q.end && i.st > q.st
	RelFinishes
	// RelFinishedBy: i.end == q.end && i.st < q.st
	RelFinishedBy
)

// relationNames for String().
var relationNames = [...]string{
	"equals", "before", "after", "meets", "met-by",
	"overlaps", "overlapped-by", "starts", "started-by",
	"during", "contains", "finishes", "finished-by",
}

func (r Relation) String() string {
	if r < 0 || int(r) >= len(relationNames) {
		return "unknown"
	}
	return relationNames[r]
}

// Relations lists all thirteen, in declaration order.
func Relations() []Relation {
	out := make([]Relation, len(relationNames))
	for i := range out {
		out[i] = Relation(i)
	}
	return out
}

// Classify returns the unique relation in which stored interval i stands
// to q. The thirteen relations partition all pairs of closed discrete
// intervals: endpoint equalities are classified first (equals, starts,
// started-by, finishes, finished-by), then disjointness (before, after),
// then endpoint touches (meets, met-by — for closed discrete intervals a
// touch is endpoint equality, matching the HINT formulation), and the
// four strict orderings last (overlaps, overlapped-by, during, contains).
func Classify(i, q model.Interval) Relation {
	switch {
	case i.Start == q.Start && i.End == q.End:
		return RelEquals
	case i.Start == q.Start && i.End < q.End:
		return RelStarts
	case i.Start == q.Start:
		return RelStartedBy
	case i.End == q.End && i.Start > q.Start:
		return RelFinishes
	case i.End == q.End:
		return RelFinishedBy
	case i.End < q.Start:
		return RelBefore
	case i.Start > q.End:
		return RelAfter
	case i.End == q.Start:
		return RelMeets
	case i.Start == q.End:
		return RelMetBy
	case i.Start < q.Start && i.End < q.End:
		return RelOverlaps
	case i.Start > q.Start && i.End > q.End:
		return RelOverlappedBy
	case i.Start > q.Start && i.End < q.End:
		return RelDuring
	default: // i.Start < q.Start && i.End > q.End
		return RelContains
	}
}

// Holds reports whether i stands in relation r to q.
func (r Relation) Holds(i, q model.Interval) bool { return Classify(i, q) == r }

// farPast / farFuture scope the before/after candidate traversals. Disc
// clamps them onto the grid; exact comparisons keep results precise.
const (
	farPast   = model.Timestamp(math.MinInt64 / 4)
	farFuture = model.Timestamp(math.MaxInt64 / 4)
)

// candidateRange returns the overlap query that is guaranteed to cover
// every interval satisfying relation r against q.
func candidateRange(r Relation, q model.Interval) model.Interval {
	switch r {
	case RelBefore, RelMeets:
		// Candidates end at or before q.Start. Canon keeps the range
		// well-formed even for queries beyond the far-past bound.
		return model.Canon(farPast, q.Start)
	case RelAfter, RelMetBy:
		return model.Canon(q.End, farFuture)
	case RelOverlaps, RelStarts, RelEquals, RelFinishedBy, RelContains:
		// All touch q.Start.
		return model.NewInterval(q.Start, q.Start)
	case RelOverlappedBy, RelFinishes, RelStartedBy:
		// All touch q.End.
		return model.NewInterval(q.End, q.End)
	default: // RelDuring
		return q
	}
}

// AllenQuery returns the ids of all live intervals standing in relation r
// to q. Traversal cost matches a plain range query over the candidate
// range; the exact predicate prunes the remainder.
func (ix *Index) AllenQuery(r Relation, q model.Interval, dst []model.ObjectID) []model.ObjectID {
	cr := candidateRange(r, q)
	ix.VisitRelevant(cr, func(p *Partition, ob Obligations) {
		for _, div := range [][]postings.Posting{p.OIn, p.OAft} {
			dst = appendRelation(div, r, q, dst)
		}
		if ob.First {
			dst = appendRelation(p.RIn, r, q, dst)
			dst = appendRelation(p.RAft, r, q, dst)
		}
	})
	return dst
}

func appendRelation(s []postings.Posting, r Relation, q model.Interval, dst []model.ObjectID) []model.ObjectID {
	for i := range s {
		if !postings.IsDead(s[i].ID) && r.Holds(s[i].Interval, q) {
			dst = append(dst, s[i].ID)
		}
	}
	return dst
}
