//go:build invariants

package maint

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tif"
)

// TestCheckGenerationFires pins the invariants build: publishing a
// structurally broken generation must panic.
func TestCheckGenerationFires(t *testing.T) {
	if !maintInvariantsEnabled {
		t.Fatal("invariants build tag set but maintInvariantsEnabled is false")
	}
	c := seedCollection(4)
	g := &Generation{
		epoch:     1,
		coll:      *c,
		compacted: &compacted{base: tif.New(c), compactLen: 4},
		// ext table too short: violates the parallel-table invariant.
		ext: []model.ObjectID{0, 1},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("checkGeneration accepted a malformed generation")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invariant violation") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	checkGeneration(g, 4)
}

// TestCheckGenerationSilentOnWellFormed runs the store lifecycle with
// checkGeneration live on every publish; nothing may fire.
func TestCheckGenerationSilentOnWellFormed(t *testing.T) {
	s := newTestStore(t, 12)
	for i := 0; i < 6; i++ {
		s.Append(model.NewInterval(model.Timestamp(i), model.Timestamp(i+2)), []model.ElemID{0}, 4)
	}
	for id := model.ObjectID(0); id < 9; id += 2 {
		s.Delete(id)
	}
	checkGeneration(s.snapshot(), s.set.NextID())
}
