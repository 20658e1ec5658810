//go:build invariants

package sharding

import (
	"testing"

	"repro/internal/model"
	"repro/internal/postings"
)

func TestInvariantsCompiledIn(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("invariants tag set but InvariantsEnabled is false")
	}
}

func TestShardAssertionFires(t *testing.T) {
	for name, s := range map[string]shard{
		"starts decrease":           {entries: []postings.Posting{{ID: 1, Interval: model.NewInterval(5, 9)}, {ID: 2, Interval: model.NewInterval(4, 9)}}},
		"ideal shard ends decrease": {entries: []postings.Posting{{ID: 1, Interval: model.NewInterval(4, 9)}, {ID: 2, Interval: model.NewInterval(5, 8)}}, ideal: true},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected invariant panic, got none")
				}
			}()
			assertShards([][]shard{{s}}, "test")
		})
	}
	// A merged shard may lower its ends.
	assertShards([][]shard{{{entries: []postings.Posting{{ID: 1, Interval: model.NewInterval(4, 9)}, {ID: 2, Interval: model.NewInterval(5, 8)}}}}}, "test")
}
