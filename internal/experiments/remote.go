package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"pace/internal/ce"
	"pace/internal/core"
	"pace/internal/engine"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/surrogate"
	"pace/internal/tenant"
	"pace/internal/wire"
	"pace/internal/workload"

	"math/rand"
)

// ModelSlug renders a model type as the lowercase token ce.ParseType
// accepts and tenant ids permit ("FCN+Pool" → "fcnpool").
func ModelSlug(typ ce.Type) string {
	return strings.ToLower(strings.ReplaceAll(typ.String(), "+", ""))
}

// TenantFactory adapts the experiment harness into a tenant.Factory: a
// Spec's (dataset, model, seed, seed_offset, scale) names exactly the
// world cmd/pace and RunMatrix build in-process, so a provisioned tenant
// hosts a bit-identical victim. Worlds are cached per (dataset, seed,
// scale) — tenants of the same world (e.g. one per matrix cell) share
// the dataset build and train only their own model.
//
// base supplies the profile knobs a Spec does not carry (workload sizes,
// epochs...). For cross-process bit-identity the factory's base profile
// must match the attacking side's Config — both default to the quick
// profile.
func TenantFactory(base Config) tenant.Factory {
	base = base.WithDefaults()
	type worldKey struct {
		dataset string
		seed    int64
		scale   float64
	}
	var (
		mu     sync.Mutex
		worlds = make(map[worldKey]*World)
	)
	return func(ctx context.Context, spec tenant.Spec) (ce.Target, *query.Meta, error) {
		typ, err := ce.ParseType(spec.Model)
		if err != nil {
			return nil, nil, err
		}
		cfg := base
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		if spec.Scale != 0 {
			cfg.Scale = spec.Scale
		}
		key := worldKey{dataset: spec.Dataset, seed: cfg.Seed, scale: cfg.Scale}
		mu.Lock()
		w, ok := worlds[key]
		mu.Unlock()
		if !ok {
			// Dataset + workload builds race at worst once per key; losers
			// throw their world away.
			if w, err = NewWorld(spec.Dataset, cfg); err != nil {
				return nil, nil, err
			}
			mu.Lock()
			if cached, again := worlds[key]; again {
				w = cached
			} else {
				worlds[key] = w
			}
			mu.Unlock()
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		bb := w.NewBlackBox(typ, spec.SeedOffset)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return bb, w.DS.Meta, nil
	}
}

// NewSurrogateTarget is NewSurrogate against any ce.Target — including a
// remote tenant, where estimates cross the wire bit-exactly, so the
// trained surrogate equals the in-process one. Unlike NewSurrogate it
// returns the error (remote targets genuinely fail).
func (w *World) NewSurrogateTarget(target ce.Target, typ ce.Type, seedOffset int64) (*ce.Estimator, error) {
	rng := rand.New(rand.NewSource(w.Cfg.Seed*104729 + seedOffset))
	wgen := w.WGen.WithRng(rand.New(rand.NewSource(w.Cfg.Seed*surWgenSeedK + seedOffset)))
	return surrogate.Train(w.Context(), target, typ, wgen, surrogate.TrainConfig{
		Queries: w.Cfg.TrainQueries,
		HP:      w.HP(),
		Train:   w.TrainCfg(),
	}, rng)
}

// TargetQErrors evaluates any ce.Target on a labeled workload, mirroring
// BlackBox.QErrors query by query; against a remote tenant the estimates
// arrive bit-exactly, so the distribution matches the in-process one.
// Harnesses that measure arbitrary targets (internal/bench, perfbench)
// call it too.
func TargetQErrors(ctx context.Context, t ce.Target, qs []*query.Query, cards []float64) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		est, err := t.EstimateContext(ctx, q)
		if err != nil {
			return nil, err
		}
		out[i] = ce.QError(est, cards[i])
	}
	return out, nil
}

// wireSpec converts a tenant spec to its admin-API form.
func wireSpec(s tenant.Spec) wire.TargetSpec {
	return wire.TargetSpec{
		ID: s.ID, Dataset: s.Dataset, Model: s.Model,
		Seed: s.Seed, SeedOffset: s.SeedOffset, Scale: s.Scale, CacheSize: s.CacheSize,
	}
}

// RunMatrixRemote is RunMatrix with every victim hosted as a tenant of
// one long-lived paced at baseURL: each (model, method) cell provisions
// its own tenant over the admin API, attacks it through the wire, and
// destroys it. Poison generation (detector, surrogate training, PACE
// trainer) stays in-process — only target interactions cross the wire,
// all bit-exactly — so for a fixed seed the resulting matrix is
// bit-identical to RunMatrix's, provided the server's factory runs the
// same profile (see TenantFactory).
//
// Cells carry no BB (the attacked models live in the server); the E2E
// table, which needs in-process models, is skipped for remote matrices.
func RunMatrixRemote(name string, models []ce.Type, cfg Config, baseURL string, opts remote.Options) (*MatrixResult, error) {
	cfg = cfg.WithDefaults()
	w, err := NewWorld(name, cfg)
	if err != nil {
		return nil, err
	}
	client, err := remote.NewClient(baseURL, opts)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	admin := client.Admin()

	res := &MatrixResult{
		Dataset: name,
		Models:  models,
		World:   w,
		Cells:   make(map[ce.Type]map[core.Method]*MatrixCell),
	}
	qs := workload.Queries(w.Test)
	cards := Cards(w.Test)
	ctx := w.Context()

	// provision creates the tenant, dials it, runs fn, then tears both
	// down. The spec's SeedOffset is the row offset, so the server-built
	// victim is the bit-identical twin of RunMatrix's NewBlackBox(typ, off).
	provision := func(id string, typ ce.Type, off int64, fn func(t ce.Target) error) error {
		spec := tenant.Spec{
			ID: id, Dataset: name, Model: ModelSlug(typ),
			Seed: cfg.Seed, SeedOffset: off, Scale: cfg.Scale,
		}
		if _, err := admin.CreateTarget(ctx, wireSpec(spec)); err != nil {
			return fmt.Errorf("provisioning %s: %w", id, err)
		}
		defer admin.DeleteTarget(ctx, id) //nolint:errcheck // best-effort cleanup
		// Targets share the client's connection pool; each cell just gets
		// its own routed view.
		return fn(client.Target(id))
	}

	rows := make([]map[core.Method]*MatrixCell, len(models))
	rowErrs := make([]error, len(models))
	engine.PoolFor(cfg.Workers).Instrument(cfg.Telemetry.Registry()).ForEach(len(models), func(mi int) {
		typ := models[mi]
		cells := make(map[core.Method]*MatrixCell)
		rows[mi] = cells
		off := int64(mi + 1)
		slug := ModelSlug(typ)
		det := w.NewDetector(0)
		rowRng := rand.New(rand.NewSource(cfg.Seed*rowSeedK + off))
		rowWGen := w.WGen.WithRng(rowRng)

		var sur *ce.Estimator
		rowErrs[mi] = provision(fmt.Sprintf("mx-%s-%s-clean", name, slug), typ, off, func(t ce.Target) error {
			qerrs, err := TargetQErrors(ctx, t, qs, cards)
			if err != nil {
				return err
			}
			cells[core.Clean] = &MatrixCell{QErrors: qerrs}
			sur, err = w.NewSurrogateTarget(t, typ, off)
			return err
		})
		if rowErrs[mi] != nil {
			return
		}

		for _, m := range core.Methods() {
			id := fmt.Sprintf("mx-%s-%s-%s", name, slug, strings.ToLower(m.String()))
			rowErrs[mi] = provision(id, typ, off, func(t ce.Target) error {
				var pq []*query.Query
				var pc []float64
				if m == core.PACE {
					tr := w.TrainPACE(sur, det, off)
					pq, pc = tr.GeneratePoison(ctx, cfg.NumPoison)
				} else {
					pq, pc = core.CraftPoison(ctx, m, sur, rowWGen, w.GenCfg(), cfg.NumPoison, rowRng)
				}
				if err := t.ExecuteWorkload(ctx, pq, pc); err != nil {
					return err
				}
				qerrs, err := TargetQErrors(ctx, t, qs, cards)
				if err != nil {
					return err
				}
				cells[m] = &MatrixCell{QErrors: qerrs}
				return nil
			})
			if rowErrs[mi] != nil {
				return
			}
		}
	})
	for mi, typ := range models {
		if rowErrs[mi] != nil {
			return nil, fmt.Errorf("row %s: %w", typ, rowErrs[mi])
		}
		res.Cells[typ] = rows[mi]
	}
	return res, nil
}
