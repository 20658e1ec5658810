package sharding

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/testutil"
)

// TestProbeBitmapsMatchOracle runs consecutive queries of very different
// universes through one goroutine, so the pooled bitmap Query marks into
// serves them all; candidate sets top out at 64-bit word edges while the
// further elements' entries reach far past them. A tight shard budget
// and out-of-order inserts leave non-ideal shards holding dead entries.
func TestProbeBitmapsMatchOracle(t *testing.T) {
	w := testutil.NewProbeWorkload(33)
	ix := New(w.Base, WithMaxShards(2))
	testutil.CheckProbeWorkload(t, w, ix)
	walked := 0
	for e := model.ElemID(1); e <= 3; e++ {
		for i := range ix.shards[e] {
			s := &ix.shards[e][i]
			if !s.ideal && slices.ContainsFunc(s.entries, func(p postings.Posting) bool { return postings.IsDead(p.ID) }) {
				walked++
			}
		}
	}
	if walked == 0 {
		t.Fatal("vacuous: no non-ideal shard holds a dead entry under the frequent elements")
	}
}
