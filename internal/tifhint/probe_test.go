package tifhint

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/testutil"
)

// TestProbeBitmapsMatchOracle runs consecutive queries of very different
// universes through one goroutine, so the pooled candidate bitmap of the
// binary variant serves them all, through Query and through QueryP with a
// 4-worker pool; candidate sets top out at 64-bit word edges, and
// three- and four-element plans reuse the bitmap across plan elements.
func TestProbeBitmapsMatchOracle(t *testing.T) {
	w := testutil.NewProbeWorkload(33)
	ix := NewBinary(w.Base)
	pool := exec.NewPool(4)
	testutil.CheckProbeWorkload(t, w, ix, map[string]func(model.Query) []model.ObjectID{
		"Query":  ix.Query,
		"QueryP": func(q model.Query) []model.ObjectID { return ix.QueryP(q, pool) },
	})
}
