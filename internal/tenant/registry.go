package tenant

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"pace/internal/ce"
	"pace/internal/query"
)

// Factory materializes a Spec into a trained target and its schema —
// typically experiments.TenantFactory, which builds the same world
// cmd/pace attacks in-process so a tenant's weights are bit-identical to
// the in-process victim of the same (dataset, model, seed, offset).
type Factory func(ctx context.Context, spec Spec) (ce.Target, *query.Meta, error)

// State of a registry slot, as reported by List and /healthz.
const (
	StateCreating = "creating"
	StateReady    = "ready"
	StateDraining = "draining"
	// StateEvicted marks a tenant whose live state was spilled by idle
	// eviction: only its Spec survives, and the next request (or an
	// explicit Revive) rebuilds it.
	StateEvicted = "evicted"
)

// Info is one tenant's directory entry.
type Info struct {
	Spec  Spec
	State string
}

// Registry is the concurrency-safe directory of a server's live tenants.
// Lookups are lock-cheap; Create runs the (potentially minutes-long)
// Factory outside the lock with a placeholder slot holding the id, so
// concurrent creates of the same id fail fast with ErrExists and
// /healthz can report the tenant as still provisioning.
//
// Admission is quota-guarded (Config.MaxTenants, Config.MaxPerOwner) and
// idle tenants can be evicted — their spec spills into a side table and
// Revive rebuilds them through the Factory, which reconstructs
// bit-identical weights for a fixed spec by construction.
type Registry struct {
	factory Factory
	cfg     Config

	mu       sync.Mutex
	slots    map[string]*slot
	evicted  map[string]Spec
	draining bool
}

type slot struct {
	state string
	t     *Tenant // nil while creating
	spec  Spec
}

// NewRegistry builds an empty registry. cfg is the serving configuration
// every tenant is created with; factory may be nil, in which case only
// Add (pre-built targets) works and Create returns an error.
func NewRegistry(factory Factory, cfg Config) *Registry {
	return &Registry{
		factory: factory,
		cfg:     cfg.withDefaults(),
		slots:   make(map[string]*slot),
		evicted: make(map[string]Spec),
	}
}

// Config returns the serving configuration tenants are created with.
func (r *Registry) Config() Config { return r.cfg }

func validID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("tenant: id %q must be 1..64 characters", id)
	}
	for _, c := range id {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("tenant: id %q may only contain letters, digits, '.', '_' and '-'", id)
		}
	}
	return nil
}

// admitLocked applies the quota rules to a prospective create. Evicted
// tenants still count — they hold their id and owner slot, only their
// live state is spilled.
func (r *Registry) admitLocked(spec Spec) error {
	if r.cfg.MaxTenants > 0 && len(r.slots)+len(r.evicted) >= r.cfg.MaxTenants {
		return fmt.Errorf("%w: host at its cap of %d tenants", ErrQuota, r.cfg.MaxTenants)
	}
	if r.cfg.MaxPerOwner > 0 && spec.Owner != "" {
		n := 0
		for _, s := range r.slots {
			if s.spec.Owner == spec.Owner {
				n++
			}
		}
		for _, sp := range r.evicted {
			if sp.Owner == spec.Owner {
				n++
			}
		}
		if n >= r.cfg.MaxPerOwner {
			return fmt.Errorf("%w: owner %q at its cap of %d tenants", ErrQuota, spec.Owner, r.cfg.MaxPerOwner)
		}
	}
	return nil
}

// Add registers a tenant around an already-trained target (boot-time
// worlds, tests). It fails with ErrExists when the id is taken and
// applies the same admission quotas as Create.
func (r *Registry) Add(spec Spec, target ce.Target, meta *query.Meta) (*Tenant, error) {
	spec = spec.withDefaults()
	if err := validID(spec.ID); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return nil, fmt.Errorf("%w: registry shutting down", ErrDraining)
	}
	if _, ok := r.slots[spec.ID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, spec.ID)
	}
	if _, ok := r.evicted[spec.ID]; ok {
		return nil, fmt.Errorf("%w: %s (evicted)", ErrExists, spec.ID)
	}
	if err := r.admitLocked(spec); err != nil {
		return nil, err
	}
	t := NewTenant(spec, target, meta, r.cfg)
	r.slots[spec.ID] = &slot{state: StateReady, t: t, spec: spec}
	return t, nil
}

// buildSafe runs the Factory with panic containment: a panicking world
// build must release the slot and surface as an error, not wedge the id
// in "creating" forever (or kill the serving process).
func (r *Registry) buildSafe(ctx context.Context, spec Spec) (target ce.Target, meta *query.Meta, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			target, meta = nil, nil
			err = fmt.Errorf("%w: %v", ErrCreatePanic, rec)
		}
	}()
	return r.factory(ctx, spec)
}

// Create provisions a new tenant through the Factory. The slot is
// visible (state "creating") for the whole build, so duplicate creates
// fail fast; on factory failure (including a panic) the slot is removed
// again. A create that completes after DrainAll began is discarded —
// no model goroutine may start once the registry is shutting down.
func (r *Registry) Create(ctx context.Context, spec Spec) (*Tenant, error) {
	spec = spec.withDefaults()
	if err := validID(spec.ID); err != nil {
		return nil, err
	}
	if r.factory == nil {
		return nil, fmt.Errorf("tenant: registry has no factory; cannot create %q at runtime", spec.ID)
	}
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: registry shutting down", ErrDraining)
	}
	if _, ok := r.slots[spec.ID]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, spec.ID)
	}
	if _, ok := r.evicted[spec.ID]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (evicted)", ErrExists, spec.ID)
	}
	if err := r.admitLocked(spec); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.slots[spec.ID] = &slot{state: StateCreating, spec: spec}
	r.mu.Unlock()

	target, meta, err := r.buildSafe(ctx, spec)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		delete(r.slots, spec.ID)
		return nil, fmt.Errorf("tenant: creating %s: %w", spec.ID, err)
	}
	if r.draining {
		delete(r.slots, spec.ID)
		return nil, fmt.Errorf("%w: registry shut down while %s trained", ErrDraining, spec.ID)
	}
	t := NewTenant(spec, target, meta, r.cfg)
	r.slots[spec.ID] = &slot{state: StateReady, t: t, spec: spec}
	return t, nil
}

// Get resolves an id to its live tenant. ErrNotReady while provisioning
// or draining, ErrEvicted when only the spilled spec remains (revive or
// retry), ErrNotFound otherwise.
func (r *Registry) Get(id string) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.slots[id]
	switch {
	case !ok:
		if _, ev := r.evicted[id]; ev {
			return nil, fmt.Errorf("%w: %s", ErrEvicted, id)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	case s.state == StateCreating:
		return nil, fmt.Errorf("%w: %s", ErrNotReady, id)
	default:
		return s.t, nil
	}
}

// Has reports whether id names a tenant in any state: ready,
// provisioning, draining or evicted.
func (r *Registry) Has(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, live := r.slots[id]
	_, evicted := r.evicted[id]
	return live || evicted
}

// List snapshots the directory, sorted by id. Evicted tenants list with
// state "evicted" — they still exist, just without live state.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.slots)+len(r.evicted))
	for _, s := range r.slots {
		info := Info{Spec: s.spec, State: s.state}
		if s.t != nil && s.t.Draining() {
			info.State = StateDraining
		}
		out = append(out, info)
	}
	for _, sp := range r.evicted {
		out = append(out, Info{Spec: sp, State: StateEvicted})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// Len reports how many tenants exist (ready, provisioning or evicted).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots) + len(r.evicted)
}

// Delete drains the tenant (in-flight work completes) and removes it.
// A tenant still provisioning cannot be deleted (ErrNotReady) — the
// create call owns the slot until it resolves. Deleting an evicted
// tenant just drops its spilled spec.
func (r *Registry) Delete(ctx context.Context, id string) error {
	r.mu.Lock()
	s, ok := r.slots[id]
	if !ok {
		if _, ev := r.evicted[id]; ev {
			delete(r.evicted, id)
			r.mu.Unlock()
			return nil
		}
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if s.state == StateCreating {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotReady, id)
	}
	s.state = StateDraining
	t := s.t
	r.mu.Unlock()

	if err := t.Drain(ctx); err != nil {
		// The drain timed out; the slot stays (draining) so the caller
		// can retry rather than leak an undrained model goroutine.
		return err
	}
	r.mu.Lock()
	delete(r.slots, id)
	r.mu.Unlock()
	return nil
}

// EvictIdle drains every ready tenant idle for at least idleFor and
// spills its spec into the evicted table for lazy revival. It returns
// the evicted ids (sorted). ctx bounds each tenant's drain.
func (r *Registry) EvictIdle(ctx context.Context, idleFor time.Duration) []string {
	r.mu.Lock()
	type victim struct {
		id string
		t  *Tenant
	}
	var victims []victim
	for id, s := range r.slots {
		if s.state == StateReady && s.t != nil && !s.t.Draining() && s.t.IdleFor() >= idleFor {
			s.state = StateDraining
			victims = append(victims, victim{id: id, t: s.t})
		}
	}
	r.mu.Unlock()

	var out []string
	for _, v := range victims {
		if err := v.t.Drain(ctx); err != nil {
			// Drain timed out; the slot stays draining and a later pass
			// (or Delete) finishes the job.
			continue
		}
		r.mu.Lock()
		if s, ok := r.slots[v.id]; ok {
			delete(r.slots, v.id)
			r.evicted[v.id] = s.spec
			out = append(out, v.id)
		}
		r.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Revive rebuilds an evicted tenant from its spilled spec — the lazy
// revival path the server takes when a request hits an evicted id.
// While the rebuild runs the id occupies a "creating" slot, so
// concurrent revives coalesce (ErrNotReady) instead of double-building;
// on failure the spec re-spills so a later request can retry.
func (r *Registry) Revive(ctx context.Context, id string) (*Tenant, error) {
	if r.factory == nil {
		return nil, fmt.Errorf("tenant: registry has no factory; cannot revive %q", id)
	}
	r.mu.Lock()
	spec, ok := r.evicted[id]
	if !ok {
		s, live := r.slots[id]
		r.mu.Unlock()
		switch {
		case !live:
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		case s.state == StateCreating:
			return nil, fmt.Errorf("%w: %s", ErrNotReady, id)
		default:
			return s.t, nil // someone already revived it
		}
	}
	if r.draining {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: registry shutting down", ErrDraining)
	}
	delete(r.evicted, id)
	r.slots[id] = &slot{state: StateCreating, spec: spec}
	r.mu.Unlock()

	target, meta, err := r.buildSafe(ctx, spec)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		delete(r.slots, id)
		r.evicted[id] = spec
		return nil, fmt.Errorf("tenant: reviving %s: %w", id, err)
	}
	if r.draining {
		delete(r.slots, id)
		r.evicted[id] = spec
		return nil, fmt.Errorf("%w: registry shut down while %s revived", ErrDraining, id)
	}
	t := NewTenant(spec, target, meta, r.cfg)
	r.slots[id] = &slot{state: StateReady, t: t, spec: spec}
	return t, nil
}

// DrainAll drains every live tenant concurrently — the process-shutdown
// path: in-flight execute and estimate calls on every tenant complete
// before it returns. Tenants are left registered (state draining) so
// late lookups answer "draining", not "not found", and creates that
// resolve after shutdown began are discarded by Create itself.
func (r *Registry) DrainAll(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	tenants := make([]*Tenant, 0, len(r.slots))
	for _, s := range r.slots {
		if s.t != nil {
			s.state = StateDraining
			tenants = append(tenants, s.t)
		}
	}
	r.mu.Unlock()

	errs := make(chan error, len(tenants))
	for _, t := range tenants {
		go func(t *Tenant) { errs <- t.Drain(ctx) }(t)
	}
	var first error
	for range tenants {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
