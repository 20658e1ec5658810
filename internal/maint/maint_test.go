package maint

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tif"
	"repro/internal/tifhint"
)

// tifBuild is the BuildFunc the tests use: the base temporal inverted
// file, the simplest member of the index family.
func tifBuild(_ context.Context, c *model.Collection) (model.Index, error) { return tif.New(c), nil }

// seedCollection builds n objects: object i lives [i, i+10] and carries
// element i%4 (plus element 0 on even ids).
func seedCollection(n int) *model.Collection {
	c := &model.Collection{DictSize: 4}
	for i := 0; i < n; i++ {
		elems := []model.ElemID{model.ElemID(i % 4)}
		if i%2 == 0 {
			elems = append(elems, 0)
		}
		c.AppendObject(model.NewInterval(model.Timestamp(i), model.Timestamp(i+10)), model.NormalizeElems(elems))
	}
	return c
}

// newDenseStore is the only store of a one-store set over a collection
// whose external ids are its dense positions.
func newDenseStore(c *model.Collection, base model.Index, build BuildFunc) *Store {
	ext := make([]model.ObjectID, len(c.Objects))
	for i := range ext {
		ext[i] = model.ObjectID(i)
	}
	return NewSet([]Part{{Coll: c, Base: base, Build: build, Ext: ext}}, model.ObjectID(len(ext))).Stores()[0]
}

func newTestStore(t *testing.T, n int) *Store {
	t.Helper()
	c := seedCollection(n)
	return newDenseStore(c, tif.New(c), tifBuild)
}

// expected scans the generation's collection directly: the matching,
// non-tombstoned internal ids in ascending order.
func expected(g *Generation, q model.Query) []model.ObjectID {
	var want []model.ObjectID
	for i := range g.Coll().Objects {
		o := &g.Coll().Objects[i]
		if !g.Tombstoned(o.ID) && q.Matches(o) {
			want = append(want, o.ID)
		}
	}
	return want
}

func checkQuery(t *testing.T, g *Generation, q model.Query) {
	t.Helper()
	got := g.Query(q)
	model.SortIDs(got)
	if !model.EqualIDs(model.DedupIDs(got), expected(g, q)) {
		t.Errorf("query %v elems=%v: got %v, want %v", q.Interval, q.Elems, got, expected(g, q))
	}
}

var testQueries = []model.Query{
	{Interval: model.NewInterval(0, 100)},
	{Interval: model.NewInterval(5, 15), Elems: []model.ElemID{0}},
	{Interval: model.NewInterval(12, 12), Elems: []model.ElemID{1}},
	{Interval: model.NewInterval(0, 40), Elems: []model.ElemID{0, 2}},
	{Interval: model.NewInterval(30, 60), Elems: []model.ElemID{3}},
}

func TestAppendVisibleAndStable(t *testing.T) {
	s := newTestStore(t, 20)
	id := s.Append(model.NewInterval(100, 110), []model.ElemID{1}, 4)
	if id != 20 {
		t.Fatalf("first appended external id = %d, want 20", id)
	}
	g := s.snapshot()
	if g.Len() != 21 || g.MemLen() != 1 {
		t.Fatalf("Len=%d MemLen=%d, want 21/1", g.Len(), g.MemLen())
	}
	ids := g.Query(model.Query{Interval: model.NewInterval(105, 105), Elems: []model.ElemID{1}})
	ext := g.External(ids)
	if len(ext) != 1 || ext[0] != id {
		t.Fatalf("memtable object not visible to queries: got %v, want [%d]", ext, id)
	}
	for _, q := range testQueries {
		checkQuery(t, g, q)
	}
}

func TestDeleteHidesAndReports(t *testing.T) {
	s := newTestStore(t, 20)
	if !s.Delete(5) {
		t.Fatal("Delete(5) = false, want true")
	}
	if s.Delete(5) {
		t.Fatal("second Delete(5) = true, want false (already dead)")
	}
	if s.Delete(99) {
		t.Fatal("Delete(99) = true, want false (unknown)")
	}
	g := s.snapshot()
	if g.Len() != 19 || g.TombstoneCount() != 1 {
		t.Fatalf("Len=%d tombstones=%d, want 19/1", g.Len(), g.TombstoneCount())
	}
	if _, ok := g.Lookup(5); ok {
		t.Fatal("Lookup(5) found a tombstoned object")
	}
	for _, q := range testQueries {
		checkQuery(t, g, q)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := newTestStore(t, 10)
	g0 := s.snapshot()
	s.Append(model.NewInterval(0, 100), []model.ElemID{0}, 4)
	s.Delete(3)
	if g0.Len() != 10 || g0.MemLen() != 0 || g0.TombstoneCount() != 0 {
		t.Fatal("older generation observed later mutations")
	}
	g1 := s.snapshot()
	if g1.Len() != 10 || g1.MemLen() != 1 || g1.TombstoneCount() != 1 {
		t.Fatalf("new generation Len=%d MemLen=%d dead=%d, want 10/1/1", g1.Len(), g1.MemLen(), g1.TombstoneCount())
	}
	if g1.Epoch() <= g0.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", g0.Epoch(), g1.Epoch())
	}
}

// resultsByExt evaluates the query set and returns externally-keyed
// canonical results, comparable across compactions.
func resultsByExt(g *Generation) [][]model.ObjectID {
	out := make([][]model.ObjectID, len(testQueries))
	for i, q := range testQueries {
		ids := g.Query(q)
		ext := g.External(ids)
		model.SortIDs(ext)
		out[i] = model.DedupIDs(ext)
	}
	return out
}

func TestCompactDropsTombstonesKeepsResults(t *testing.T) {
	s := newTestStore(t, 40)
	for i := 0; i < 8; i++ {
		s.Append(model.NewInterval(model.Timestamp(40+i), model.Timestamp(50+i)), []model.ElemID{model.ElemID(i % 4)}, 4)
	}
	for id := model.ObjectID(0); id < 48; id += 3 {
		s.Delete(id)
	}
	before := resultsByExt(s.snapshot())

	st, err := s.Compact(context.Background())
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Compactions != 1 || st.Tombstones != 0 || st.MemObjects != 0 {
		t.Fatalf("stats after compact: %+v", st)
	}
	if st.LastDropped != 16 || st.LastMerged != 8 {
		t.Fatalf("LastDropped=%d LastMerged=%d, want 16/8", st.LastDropped, st.LastMerged)
	}
	g := s.snapshot()
	if g.Len() != 32 || g.MemLen() != 0 || g.TombstoneCount() != 0 {
		t.Fatalf("post-compact Len=%d MemLen=%d dead=%d, want 32/0/0", g.Len(), g.MemLen(), g.TombstoneCount())
	}
	if g.base.Len() != 32 {
		t.Fatalf("base index covers %d objects, want 32", g.base.Len())
	}
	after := resultsByExt(g)
	for i := range before {
		if !model.EqualIDs(before[i], after[i]) {
			t.Errorf("query %d changed across compaction: %v -> %v", i, before[i], after[i])
		}
	}

	// Consumed tombstones are really gone: the dropped ids are unknown now.
	if _, ok := g.Internal(0); ok {
		t.Error("compacted-away id 0 still resolvable")
	}
	if s.Delete(0) {
		t.Error("Delete of a compacted-away id succeeded")
	}
	// Survivor ids are still resolvable and live.
	if _, ok := g.Lookup(1); !ok {
		t.Error("surviving id 1 lost across compaction")
	}
}

func TestCompactNoop(t *testing.T) {
	s := newTestStore(t, 10)
	g0 := s.snapshot()
	st, err := s.Compact(context.Background())
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Compactions != 0 {
		t.Fatalf("no-op compact counted: %+v", st)
	}
	if s.snapshot() != g0 {
		t.Fatal("no-op compact published a new generation")
	}
}

func TestCompactContextCanceled(t *testing.T) {
	s := newTestStore(t, 10)
	s.Delete(0)
	g0 := s.snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Compact(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact(canceled) err = %v, want context.Canceled", err)
	}
	if s.snapshot() != g0 {
		t.Fatal("failed compact mutated the published generation")
	}
}

// TestCompactBuildReceivesContext pins that the BuildFunc gets the
// compaction's own context (not a detached Background), so a cancellation that lands mid-compaction reaches the
// rebuild. The build cancels the caller's ctx and returns the error of
// the ctx it received — if the store handed it a detached context, that
// error would be nil, the compaction would "succeed", and the swap would
// go through.
func TestCompactBuildReceivesContext(t *testing.T) {
	c := seedCollection(10)
	ctx, cancel := context.WithCancel(context.Background())
	build := func(bctx context.Context, _ *model.Collection) (model.Index, error) {
		cancel()
		return nil, bctx.Err()
	}
	s := newDenseStore(c, tif.New(c), build)
	s.Delete(0)
	g0 := s.snapshot()
	if _, err := s.Compact(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact err = %v, want context.Canceled threaded through BuildFunc", err)
	}
	if s.snapshot() != g0 {
		t.Fatal("canceled compact mutated the published generation")
	}
	if st := s.Stats(); st.InProgress {
		t.Fatal("compacting latch stuck after canceled build")
	}
}

func TestCompactBuildError(t *testing.T) {
	c := seedCollection(10)
	boom := errors.New("boom")
	s := newDenseStore(c, tif.New(c), func(context.Context, *model.Collection) (model.Index, error) { return nil, boom })
	s.Delete(0)
	g0 := s.snapshot()
	if _, err := s.Compact(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Compact err = %v, want boom", err)
	}
	if s.snapshot() != g0 {
		t.Fatal("failed compact mutated the published generation")
	}
	if st := s.Stats(); st.InProgress {
		t.Fatal("compacting latch stuck after build error")
	}
}

// TestWritesDuringCompaction drives a compaction whose BuildFunc blocks
// on a channel, proving queries and writes proceed while compaction is
// in flight, and that mutations landing mid-compaction survive the swap.
func TestWritesDuringCompaction(t *testing.T) {
	c := seedCollection(30)
	enter := make(chan struct{})
	release := make(chan struct{})
	build := func(_ context.Context, cc *model.Collection) (model.Index, error) {
		close(enter)
		<-release
		return tif.New(cc), nil
	}
	s := newDenseStore(c, tif.New(c), build)
	for id := model.ObjectID(0); id < 10; id++ {
		s.Delete(id)
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.Compact(context.Background())
		done <- err
	}()
	<-enter // compaction is inside the (blocked) rebuild

	// Writes and reads proceed while the rebuild is stuck.
	midIns := s.Append(model.NewInterval(200, 210), []model.ElemID{2}, 4)
	if !s.Delete(15) {
		t.Fatal("Delete during compaction failed")
	}
	if _, err := s.Compact(context.Background()); !errors.Is(err, ErrCompactionRunning) {
		t.Fatalf("second Compact err = %v, want ErrCompactionRunning", err)
	}
	g := s.snapshot()
	ids := g.External(g.Query(model.Query{Interval: model.NewInterval(205, 205), Elems: []model.ElemID{2}}))
	found := false
	for _, id := range ids {
		if id == midIns {
			found = true
		}
	}
	if !found {
		t.Fatal("mid-compaction insert not visible to queries")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Compact: %v", err)
	}

	g = s.snapshot()
	// The 10 snapshot tombstones were dropped; the mid-flight delete of 15
	// was carried as a tombstone; the mid-flight insert is in the memtable.
	if g.Len() != 30-10+1-1 {
		t.Fatalf("post-compact Len = %d, want 20", g.Len())
	}
	if g.TombstoneCount() != 1 {
		t.Fatalf("carried tombstones = %d, want 1", g.TombstoneCount())
	}
	if g.MemLen() != 1 {
		t.Fatalf("post-compact memtable = %d, want 1 (mid-flight insert)", g.MemLen())
	}
	if _, ok := g.Lookup(15); ok {
		t.Fatal("mid-compaction delete lost across swap")
	}
	if _, ok := g.Lookup(midIns); !ok {
		t.Fatal("mid-compaction insert lost across swap")
	}
	for _, q := range testQueries {
		checkQuery(t, g, q)
	}

	// A second compaction folds the carried state in fully.
	s2 := s
	s2.build = tifBuild
	if _, err := s2.Compact(context.Background()); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	g = s.snapshot()
	if g.TombstoneCount() != 0 || g.MemLen() != 0 || g.Len() != 20 {
		t.Fatalf("after second compact: Len=%d MemLen=%d dead=%d, want 20/0/0", g.Len(), g.MemLen(), g.TombstoneCount())
	}
}

func TestAutoCompactionPolicy(t *testing.T) {
	s := newTestStore(t, 10)
	s.SetPolicy(Policy{MaxMemObjects: 4})
	for i := 0; i < 4; i++ {
		s.Append(model.NewInterval(model.Timestamp(i), model.Timestamp(i+1)), []model.ElemID{0}, 4)
	}
	waitFor(t, func() bool { return s.Stats().Compactions >= 1 && s.Stats().MemObjects == 0 })

	// Tombstone-ratio trigger: delete until >= 30% of objects are dead.
	s.SetPolicy(Policy{MaxDeadRatio: 0.3})
	for id := model.ObjectID(0); id < 5; id++ {
		s.Delete(id)
	}
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Compactions >= 2 && st.Tombstones == 0
	})
	if got := s.snapshot().Len(); got != 9 {
		t.Fatalf("Len after policy compactions = %d, want 9", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInternalExternalRoundTrip(t *testing.T) {
	s := newTestStore(t, 25)
	for id := model.ObjectID(0); id < 25; id += 4 {
		s.Delete(id)
	}
	if _, err := s.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	g := s.snapshot()
	exts := make([]model.ObjectID, 0, g.Len())
	for i := range g.Coll().Objects {
		e := g.ExternalID(model.ObjectID(i))
		exts = append(exts, e)
		in, ok := g.Internal(e)
		if !ok || int(in) != i {
			t.Fatalf("round trip failed: internal %d -> ext %d -> %d,%v", i, e, in, ok)
		}
	}
	if !sort.SliceIsSorted(exts, func(a, b int) bool { return exts[a] < exts[b] }) {
		t.Fatal("external id table not ascending after compaction")
	}
}

// TestBinaryBaseQueryAgrees checks a generation over a tIF+HINT base
// with tombstones and a memtable against a scan of its collection.
func TestBinaryBaseQueryAgrees(t *testing.T) {
	c := seedCollection(60)
	s := newDenseStore(c, tifhint.NewBinary(c), func(_ context.Context, cc *model.Collection) (model.Index, error) { return tifhint.NewBinary(cc), nil })
	for id := model.ObjectID(0); id < 60; id += 5 {
		s.Delete(id)
	}
	s.Append(model.NewInterval(5, 500), []model.ElemID{1}, 4)
	g := s.snapshot()
	for _, q := range testQueries {
		checkQuery(t, g, q)
	}
}

// TestElementFreeQueryScansEveryObject: the index answers an element-free
// query with nil, and the generation answers it by one scan over base
// and memtable, so objects without elements, which no postings list
// holds, are found wherever they sit, tombstones excepted, before and
// after a compaction.
func TestElementFreeQueryScansEveryObject(t *testing.T) {
	c := seedCollection(8)
	c.AppendObject(model.NewInterval(3, 4), nil) // internal id 8, termless
	s := newDenseStore(c, tif.New(c), tifBuild)
	s.Append(model.NewInterval(2, 5), nil, 4)               // 9, termless
	s.Append(model.NewInterval(1, 6), nil, 4)               // 10, termless
	s.Append(model.NewInterval(4, 4), []model.ElemID{2}, 4) // 11
	s.Delete(10)
	q := model.Query{Interval: model.NewInterval(4, 4)}
	check := func(stage string, want []model.ObjectID) {
		t.Helper()
		g := s.snapshot()
		if got := g.base.Query(q); got != nil {
			t.Errorf("%s: base index answered %v, want nil", stage, got)
		}
		got := g.External(g.Query(q))
		model.SortIDs(got)
		if !model.EqualIDs(got, want) {
			t.Errorf("%s: element-free query = %v, want %v", stage, got, want)
		}
		checkQuery(t, g, q)
	}
	check("memtable", []model.ObjectID{0, 1, 2, 3, 4, 8, 9, 11})
	if _, err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("compacted", []model.ObjectID{0, 1, 2, 3, 4, 8, 9, 11})
}
