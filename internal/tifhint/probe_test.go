package tifhint

import (
	"testing"

	"repro/internal/testutil"
)

// TestProbeBitmapsMatchOracle runs consecutive queries of very different
// universes through one goroutine, so the pooled candidate bitmap of the
// binary variant serves them all; candidate sets top out at 64-bit word
// edges, and three- and four-element plans reuse the bitmap across plan
// elements.
func TestProbeBitmapsMatchOracle(t *testing.T) {
	w := testutil.NewProbeWorkload(33)
	testutil.CheckProbeWorkload(t, w, NewBinary(w.Base))
}
