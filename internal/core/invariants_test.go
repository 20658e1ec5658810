//go:build invariants

package core

import (
	"testing"

	"repro/internal/postings"
)

func TestSurvivorPoolAssertionFires(t *testing.T) {
	var bm postings.Bitmap
	bm.Reset(130)
	bm.Set(129)
	defer func() {
		if recover() == nil {
			t.Error("expected invariant panic, got none")
		}
	}()
	putSurvivors(&bm) // panics before pooling it
}
