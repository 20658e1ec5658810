package maint

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tif"
)

// TestStoreRace hammers every store entry point concurrently — appends,
// deletes, snapshot queries, stats and repeated compactions — so `go
// test -race` can observe any unsynchronized access between the writer
// paths and the lock-free read path.
func TestStoreRace(t *testing.T) {
	s := newTestStore(t, 50)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: appends
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Append(model.NewInterval(model.Timestamp(i%90), model.Timestamp(i%90+10)), []model.ElemID{model.ElemID(i % 4)}, 4)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() { // writer: deletes (some ids already dead or compacted: fine)
		defer wg.Done()
		for id := model.ObjectID(0); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Delete(id % 120)
			time.Sleep(70 * time.Microsecond)
		}
	}()
	for r := 0; r < 3; r++ { // readers: snapshot queries + lookups
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := s.Snapshot()
				q := testQueries[(i+r)%len(testQueries)]
				ids := g.Query(q)
				g.External(ids)
				g.Lookup(model.ObjectID(i % 120))
				g.Len()
				g.SizeBytes()
			}
		}(r)
	}
	wg.Add(1)
	go func() { // stats poller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Stats()
			time.Sleep(20 * time.Microsecond)
		}
	}()

	for i := 0; i < 20; i++ { // repeated foreground compactions
		if _, err := s.Compact(context.Background()); err != nil {
			t.Fatalf("Compact %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// The surviving state must still be coherent.
	if _, err := s.Compact(context.Background()); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	g := s.Snapshot()
	if g.TombstoneCount() != 0 || g.MemLen() != 0 {
		t.Fatalf("after final compact: MemLen=%d dead=%d, want 0/0", g.MemLen(), g.TombstoneCount())
	}
	for _, q := range testQueries {
		checkQuery(t, g, q)
	}
}

// TestAutoCompactRace overlaps policy-triggered background compactions
// with manual ones and concurrent writes.
func TestAutoCompactRace(t *testing.T) {
	c := seedCollection(20)
	s := newDenseStore(c, tif.New(c), tifBuild)
	s.SetPolicy(Policy{MaxMemObjects: 8, MaxDeadRatio: 0.25})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					s.Append(model.NewInterval(model.Timestamp(i), model.Timestamp(i+5)), []model.ElemID{model.ElemID(w % 4)}, 4)
				case 1:
					s.Delete(model.ObjectID((w*200 + i) % 300))
				default:
					g := s.Snapshot()
					g.Query(testQueries[i%len(testQueries)])
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain any in-flight background pass, then verify coherence.
	waitFor(t, func() bool { return !s.Stats().InProgress })
	for _, q := range testQueries {
		checkQuery(t, s.Snapshot(), q)
	}
}
