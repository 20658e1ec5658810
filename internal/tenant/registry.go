package tenant

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Engine is the slice of an engine the registry needs: enough to spill
// a tenant to disk and to tell whether it changed since the last
// spill. The registry is generic over it so the package never learns
// about index methods, options or query APIs.
type Engine interface {
	// Save writes a self-contained snapshot.
	Save(w io.Writer) error
	// Epoch returns a counter that advances on every mutation; the
	// registry compares it against the epoch at the last successful
	// save to decide whether an eviction or drain must write.
	Epoch() uint64
}

// Config wires a Registry. New and Load are required; everything else
// has usable zero values.
type Config[E Engine] struct {
	// New constructs a fresh empty engine for a first-seen tenant.
	New func(id string) (E, error)
	// Load rebuilds an engine from a spill snapshot written by Save.
	Load func(id string, r io.Reader) (E, error)
	// MaxActive caps resident tenants; at the cap, admitting a new
	// tenant first evicts a cold one (SpillDir set) or fails with
	// ReasonFull (SpillDir empty). Zero means unlimited.
	MaxActive int
	// SpillDir is where evicted tenants are saved and reloaded from.
	// Empty disables eviction entirely: the registry never drops a
	// tenant it cannot restore.
	SpillDir string
	// Limits resolves a tenant's static envelope at creation time.
	// Nil means unlimited. Changing a tenant's limits takes effect on
	// its next creation (i.e. after an eviction or restart).
	Limits func(id string) Limits
	// OnCreate runs under the registry lock just before a new tenant
	// becomes visible; the server uses it to attach per-tenant metrics
	// via SetTag. The tenant's engine is not built yet at this point.
	OnCreate func(t *Tenant[E])
	// OnEvict runs under the registry lock just after a built tenant is
	// evicted; its engine is still readable then. A tenant whose build
	// failed is dropped without it.
	OnEvict func(t *Tenant[E])
}

// Tenant is one resident tenant: its engine, limits, and the
// bookkeeping the registry needs for eviction. Callers hold a Tenant
// only between Get and Release; after Release the registry may evict
// it at any time.
type Tenant[E Engine] struct {
	id  string
	lim Limits

	// ready is closed once eng/err are set; Get blocks on it so engine
	// construction never runs under the registry lock.
	ready chan struct{}
	eng   E
	err   error

	// tag is an opaque attachment (the server's per-tenant metrics),
	// set in OnCreate under the registry lock before publication and
	// read-only afterwards.
	tag any

	// referenced is the clock-hand second-chance bit, set on every Get.
	referenced atomic.Bool
	// inflight counts Get holders; the clock hand never evicts a
	// tenant with holders.
	inflight atomic.Int64
	// savedEpoch is the engine epoch at the last successful spill
	// (zero: never spilled, so the tenant is dirty).
	savedEpoch atomic.Uint64
}

// ID returns the tenant identity.
func (t *Tenant[E]) ID() string { return t.id }

// Engine returns the tenant's engine. Valid only between Get and
// Release.
func (t *Tenant[E]) Engine() E { return t.eng }

// Limits returns the envelope resolved when the tenant was created.
func (t *Tenant[E]) Limits() Limits { return t.lim }

// SetTag attaches an opaque value; only legal inside OnCreate.
func (t *Tenant[E]) SetTag(v any) { t.tag = v }

// Tag returns the value attached in OnCreate, or nil.
func (t *Tenant[E]) Tag() any { return t.tag }

// Release returns the hold acquired by Get. The Tenant (and its
// engine) must not be used afterwards.
func (t *Tenant[E]) Release() {
	if t.inflight.Add(-1) < 0 {
		panic("tenant: released more than acquired") // caller bug: unbalanced Release
	}
}

// Registry owns the tenant map: lazy creation on first Get, clock-hand
// eviction of cold tenants at capacity, spill/reload through SpillDir.
// The Get hit path is read-locked and allocation-free; engine
// construction and spilling happen off the read path.
type Registry[E Engine] struct {
	cfg Config[E]

	mu sync.RWMutex
	// tenants is the resident map. Guarded by mu.
	tenants map[string]*Tenant[E]
	// ring and hand implement the eviction clock over resident
	// tenants. Guarded by mu.
	ring []*Tenant[E]
	hand int

	evictions atomic.Uint64
	spills    atomic.Uint64
}

// NewRegistry validates the config and returns an empty registry.
func NewRegistry[E Engine](cfg Config[E]) *Registry[E] {
	if cfg.New == nil || cfg.Load == nil {
		panic("tenant: Config.New and Config.Load are required") // construction-time programming error
	}
	return &Registry[E]{cfg: cfg, tenants: make(map[string]*Tenant[E])}
}

// Get returns the tenant, creating or reloading it on first use. On
// success the caller holds the tenant and must call Release; the
// registry will not evict a held tenant. The error is a *LimitError
// with ReasonFull when the registry is at capacity with no evictable
// tenant, or the engine constructor's error.
func (r *Registry[E]) Get(id string) (*Tenant[E], error) {
	r.mu.RLock()
	t := r.tenants[id]
	if t != nil {
		t.inflight.Add(1)
		t.referenced.Store(true)
		r.mu.RUnlock()
		return r.await(t)
	}
	r.mu.RUnlock()
	return r.create(id)
}

// await blocks until the tenant's engine is built (a no-op for
// resident tenants, whose ready channel is already closed).
func (r *Registry[E]) await(t *Tenant[E]) (*Tenant[E], error) {
	<-t.ready
	if t.err != nil {
		t.inflight.Add(-1)
		return nil, t.err
	}
	return t, nil
}

// Peek returns a resident, fully built tenant without taking a hold or
// touching the clock bit. It is for metric scrapes: the result may be
// evicted at any moment, so callers must tolerate stale reads and must
// not mutate the engine.
func (r *Registry[E]) Peek(id string) (*Tenant[E], bool) {
	r.mu.RLock()
	t := r.tenants[id]
	r.mu.RUnlock()
	if t == nil {
		return nil, false
	}
	select {
	case <-t.ready:
	default:
		return nil, false // still building
	}
	if t.err != nil {
		return nil, false
	}
	return t, true
}

// create is the Get miss path: under the write lock it re-checks,
// makes room, and publishes a placeholder; the engine is then built
// outside the lock while other Gets wait on the placeholder.
func (r *Registry[E]) create(id string) (*Tenant[E], error) {
	r.mu.Lock()
	t, raced, err := r.placeholderLocked(id)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if raced { // lost the race to another creator
		return r.await(t)
	}

	var loaded bool
	t.eng, loaded, t.err = r.build(id)
	if t.err == nil {
		if loaded {
			// A just-loaded engine matches its spill file exactly; mark it
			// clean so an untouched tenant is not re-spilled on eviction.
			t.savedEpoch.Store(t.eng.Epoch())
		}
		close(t.ready)
		return t, nil
	}
	// Failed build: unpublish so a later Get retries from scratch.
	r.mu.Lock()
	delete(r.tenants, id)
	r.dropFromRing(t)
	r.mu.Unlock()
	close(t.ready)
	return nil, t.err
}

// placeholderLocked re-checks for a racing creator (raced reports the
// race was lost, with the winner's tenant held), makes room at
// capacity, and publishes a new placeholder tenant whose ready channel
// the caller's build will close.
// Callers hold mu.
func (r *Registry[E]) placeholderLocked(id string) (t *Tenant[E], raced bool, err error) {
	if t := r.tenants[id]; t != nil {
		t.inflight.Add(1)
		t.referenced.Store(true)
		return t, true, nil
	}
	if max := r.cfg.MaxActive; max > 0 && len(r.tenants) >= max {
		if err := r.evictOneLocked(); err != nil {
			return nil, false, err
		}
	}
	t = &Tenant[E]{id: id, ready: make(chan struct{})}
	if r.cfg.Limits != nil {
		t.lim = r.cfg.Limits(id)
	}
	t.inflight.Store(1) // the calling Get's hold
	t.referenced.Store(true)
	if r.cfg.OnCreate != nil {
		r.cfg.OnCreate(t)
	}
	r.tenants[id] = t
	r.ring = append(r.ring, t)
	return t, false, nil
}

// build loads the tenant from its spill file if one exists, otherwise
// constructs a fresh engine. A loaded tenant starts clean (saved epoch
// = current epoch); a fresh one starts dirty so a drain writes it.
func (r *Registry[E]) build(id string) (eng E, loaded bool, err error) {
	var zero E
	if r.cfg.SpillDir != "" {
		f, err := os.Open(r.spillPath(id))
		switch {
		case err == nil:
			defer f.Close()
			eng, err := r.cfg.Load(id, f)
			if err != nil {
				return zero, false, fmt.Errorf("tenant %s: reloading spill: %w", id, err)
			}
			return eng, true, nil
		case !os.IsNotExist(err):
			return zero, false, fmt.Errorf("tenant %s: opening spill: %w", id, err)
		}
	}
	eng, err = r.cfg.New(id)
	return eng, false, err
}

func (r *Registry[E]) spillPath(id string) string {
	return filepath.Join(r.cfg.SpillDir, id+".tir")
}

// evictOneLocked frees one slot with a two-sweep clock: the first pass
// over the ring clears reference bits, the second takes the first
// tenant that is cold (bit clear) and idle (no holders). Dirty victims
// are spilled before removal — under the lock, which is acceptable
// because eviction is the cold path by construction. With no SpillDir
// eviction would lose data, so the registry reports ReasonFull
// instead. Callers hold mu.
func (r *Registry[E]) evictOneLocked() error {
	if r.cfg.SpillDir == "" {
		return &LimitError{Reason: ReasonFull}
	}
	for sweep := 0; sweep < 2*len(r.ring); sweep++ {
		if len(r.ring) == 0 {
			break
		}
		r.hand %= len(r.ring)
		t := r.ring[r.hand]
		r.hand++
		if t.inflight.Load() > 0 {
			continue
		}
		if t.referenced.Swap(false) {
			continue // second chance
		}
		if err := r.saveLocked(t); err != nil {
			return err // keep the tenant resident rather than lose data
		}
		delete(r.tenants, t.id)
		r.dropFromRing(t)
		r.evictions.Add(1)
		if r.cfg.OnEvict != nil {
			r.cfg.OnEvict(t)
		}
		return nil
	}
	return &LimitError{Reason: ReasonFull}
}

// dropFromRing swap-removes the tenant, keeping the hand in range. The
// clock order is approximate, so swap-remove's reordering is fine.
// Callers hold mu.
func (r *Registry[E]) dropFromRing(t *Tenant[E]) {
	for i, v := range r.ring {
		if v == t {
			last := len(r.ring) - 1
			r.ring[i] = r.ring[last]
			r.ring[last] = nil
			r.ring = r.ring[:last]
			if r.hand > last {
				r.hand = 0
			}
			return
		}
	}
}

// saveLocked spills the tenant if dirty, via temp-file-and-rename so a
// crash mid-save never corrupts the previous snapshot. Callers hold mu.
func (r *Registry[E]) saveLocked(t *Tenant[E]) error {
	if t.eng.Epoch() == t.savedEpoch.Load() {
		return nil // clean
	}
	// Snapshot the epoch before saving: a racing write between Save
	// and the store below leaves the tenant dirty, never clean-but-stale.
	epoch := t.eng.Epoch()
	path := r.spillPath(t.id)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("tenant %s: spill: %w", t.id, err)
	}
	if err := t.eng.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tenant %s: spill: %w", t.id, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tenant %s: spill: %w", t.id, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tenant %s: spill: %w", t.id, err)
	}
	t.savedEpoch.Store(epoch)
	r.spills.Add(1)
	return nil
}

// Evict spills (if dirty) and removes one tenant by id. It fails if
// the tenant has holders. Only tests call it; the serving path relies
// on the clock instead.
func (r *Registry[E]) Evict(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[id]
	if t == nil {
		return fmt.Errorf("tenant %s: not resident", id)
	}
	select {
	case <-t.ready:
	default:
		return fmt.Errorf("tenant %s: still building", id)
	}
	if t.inflight.Load() > 0 {
		return fmt.Errorf("tenant %s: in use", id)
	}
	if r.cfg.SpillDir != "" {
		if err := r.saveLocked(t); err != nil {
			return err
		}
	}
	delete(r.tenants, id)
	r.dropFromRing(t)
	r.evictions.Add(1)
	if r.cfg.OnEvict != nil {
		r.cfg.OnEvict(t)
	}
	return nil
}

// SaveDirty spills every dirty resident tenant without evicting any —
// the graceful-drain half of shutdown. It keeps going on per-tenant
// errors and returns the first one. With no SpillDir it is a no-op.
func (r *Registry[E]) SaveDirty() error {
	if r.cfg.SpillDir == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, t := range r.ring {
		select {
		case <-t.ready:
		default:
			continue // still building; nothing to save yet
		}
		if t.err != nil {
			continue
		}
		if err := r.saveLocked(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Each calls f with every resident, fully built tenant. f runs without
// the registry lock and without a hold, so it must treat tenants as
// Peek results: read-only, possibly stale.
func (r *Registry[E]) Each(f func(t *Tenant[E])) {
	r.mu.RLock()
	snapshot := make([]*Tenant[E], len(r.ring))
	copy(snapshot, r.ring)
	r.mu.RUnlock()
	for _, t := range snapshot {
		select {
		case <-t.ready:
		default:
			continue
		}
		if t.err == nil {
			f(t)
		}
	}
}

// Len returns the number of resident tenants.
func (r *Registry[E]) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Evictions returns the cumulative count of tenants evicted.
func (r *Registry[E]) Evictions() uint64 { return r.evictions.Load() }

// Spills returns the cumulative count of spill files written.
func (r *Registry[E]) Spills() uint64 { return r.spills.Load() }
