package shard

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

func TestNewTimeRangeValidation(t *testing.T) {
	if _, err := NewTimeRange(0, 0, 10); err == nil {
		t.Fatal("want error for 0 shards")
	}
	if _, err := NewTimeRange(4, 10, 0); err == nil {
		t.Fatal("want error for inverted bounds")
	}
	if _, err := NewHash(0); err == nil {
		t.Fatal("want error for 0 hash shards")
	}
}

func TestTimeRangeRouting(t *testing.T) {
	m, err := NewTimeRange(4, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Every start routes in range, monotonically with start time.
	prev := 0
	for s := model.Timestamp(-10); s <= 110; s++ {
		idx := m.Route(model.NewInterval(s, s+5), nil)
		if idx < 0 || idx >= 4 {
			t.Fatalf("start %d routed out of range: %d", s, idx)
		}
		if idx < prev {
			t.Fatalf("routing not monotone in start time: %d then %d", prev, idx)
		}
		prev = idx
	}
	// Out-of-bounds starts clamp to the edge shards.
	if got := m.Route(model.NewInterval(-1000, -900), nil); got != 0 {
		t.Fatalf("early start routed to %d, want 0", got)
	}
	if got := m.Route(model.NewInterval(1000, 1100), nil); got != 3 {
		t.Fatalf("late start routed to %d, want 3", got)
	}
}

func TestTimeRangeSlotsTileDomain(t *testing.T) {
	m, err := NewTimeRange(4, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Four contiguous slots of width ceil(100/4) = 25 tile [0, 99]: every
	// start lands in the slot that holds it, and every shard gets one.
	for s := model.Timestamp(0); s <= 99; s++ {
		if got, want := m.Route(model.NewInterval(s, s), nil), int(s/25); got != want {
			t.Fatalf("start %d routed to shard %d, want %d", s, got, want)
		}
	}
}

func TestHashRoutingDeterministicAndSpread(t *testing.T) {
	m, err := NewHash(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 8)
	for i := 0; i < 4000; i++ {
		st := model.Timestamp(rng.Int63n(1 << 40))
		iv := model.NewInterval(st, st+model.Timestamp(rng.Int63n(1000)))
		elems := []model.ElemID{model.ElemID(rng.Intn(100)), model.ElemID(100 + rng.Intn(100))}
		a := m.Route(iv, elems)
		b := m.Route(iv, elems)
		if a != b {
			t.Fatalf("hash routing not deterministic: %d vs %d", a, b)
		}
		if a < 0 || a >= 8 {
			t.Fatalf("hash routed out of range: %d", a)
		}
		counts[a]++
	}
	// A grossly unbalanced hash would defeat the fallback's purpose.
	for i, c := range counts {
		if c < 4000/8/4 {
			t.Fatalf("shard %d badly underloaded: %d of 4000", i, c)
		}
	}
}
