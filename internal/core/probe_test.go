package core

import (
	"testing"

	"repro/internal/hint"
	"repro/internal/testutil"
)

// TestProbeBitmapsMatchOracle runs consecutive queries of very different
// universes through one goroutine, so the size variant's pooled survivor
// bitmap serves them all. The run must visit divisions holding dead
// entries both where the obligations ask for a comparison and where they
// do not.
func TestProbeBitmapsMatchOracle(t *testing.T) {
	w := testutil.NewProbeWorkload(33)
	ix := NewSize(w.Base, WithM(6))
	testutil.CheckProbeWorkload(t, w, ix)
	var free, owing int // visited divisions with dead entries, by obligation
	count := func(d *sizeDiv, compare bool) {
		switch {
		case d.dead == 0:
		case compare:
			owing++
		default:
			free++
		}
	}
	for _, q := range w.Queries {
		hint.Visit(ix.dom, q.Interval, func(lv hint.LevelVisit) {
			ix.levels[lv.Level].ForRange(lv.F, lv.L, func(j uint32, p *sizePart) {
				ob := lv.Oblige(j)
				count(&p.o, ob.CheckStart || ob.CheckEnd)
				if ob.First {
					count(&p.r, ob.CheckStart)
				}
			})
		})
	}
	if free == 0 || owing == 0 {
		t.Fatalf("vacuous: divisions with dead entries visited comparison-free %d, comparison-owing %d", free, owing)
	}
}
