//go:build !invariants

package maint

import "repro/internal/model"

// maintInvariantsEnabled reports whether generation well-formedness
// checks are compiled in (-tags invariants).
const maintInvariantsEnabled = false

// checkGeneration is a no-op in normal builds; see invariants_on.go.
func checkGeneration(*Generation, model.ObjectID) {}
