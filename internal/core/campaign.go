package core

import (
	"context"
	"errors"
	"math/rand"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/remote"
	"pace/internal/workload"
)

// Campaign is the public entry point for a full PACE attack: fill in the
// scenario, pick a seed, call Run. Every component of the threat model
// is a named field, visible at the call site, and reproducibility is
// taken by value: a Campaign with the same fields and Seed produces
// bit-identical results on every run, at any Config.Workers setting.
type Campaign struct {
	// Target is the attacker's remote view of the victim estimator
	// (§2.2): opaque predictions plus the incremental-update surface the
	// poison lands on.
	Target ce.Target
	// TargetURL, when Target is nil, dials a live paced estimator
	// service (cmd/paced) at this base URL and runs the whole pipeline
	// over the wire through a remote.RemoteTarget. Exactly one of
	// Target and TargetURL must be set. Against a multi-tenant host the
	// URL may carry the tenant route itself (.../v1/targets/a), or
	// Remote.Tenant may name it; a bare URL attacks the host's default
	// tenant.
	TargetURL string
	// Remote tunes the dialed client when TargetURL is used (batching,
	// coalescing, timeouts, tenant routing, auth); the zero value uses
	// remote defaults.
	Remote remote.Options
	// Workload supplies the attacker's query-generation and COUNT(*)
	// machinery over the target database.
	Workload *workload.Generator
	// Test is the workload whose estimation error the attack maximizes
	// (Eq. 10's L_test).
	Test []workload.Labeled
	// History is the historical workload the anomaly detector learns
	// normality from (§6).
	History []workload.Labeled
	// Config tunes every pipeline stage; the zero value runs the paper's
	// defaults.
	Config Config
	// Seed fixes every random draw of the campaign. Two runs with equal
	// Seed (and equal other fields) are bit-identical.
	Seed int64
}

// Run executes the complete PACE attack of §3: speculate and train a
// surrogate (§4), adversarially train the poisoning generator with the
// anomaly detector (§5–6), generate the poisoning workload, and execute
// it against the target (§3.4).
//
// The campaign honors ctx (deadline or cancellation) and survives an
// unreliable target: calls are retried per Config.Retry, failed
// speculation degrades to the Linear surrogate, unlabeled oracle calls
// are skipped, and — when Config.CheckpointSink is set — training is
// checkpointed so a killed campaign can resume via Config.Resume. On
// error the returned Result carries whatever state was reached (it is
// non-nil whenever training started).
func (c *Campaign) Run(ctx context.Context) (*Result, error) {
	target := c.Target
	switch {
	case target == nil && c.TargetURL == "":
		return nil, errors.New("core: campaign needs a Target or a TargetURL")
	case target != nil && c.TargetURL != "":
		return nil, errors.New("core: Target and TargetURL are mutually exclusive")
	case target == nil:
		rc, err := remote.NewClient(c.TargetURL, c.Remote)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		target = rc.Target(c.Remote.Tenant)
	}
	// Derive the trace ID from the seed: two runs of the same campaign
	// carry the same trace ID, so their stitched fleet traces are
	// directly comparable (and the determinism tests can diff them).
	if tel := c.Config.Telemetry; tel != nil && tel.Tracer != nil {
		tel.Tracer.SetTraceID(obs.DeriveTraceID(c.Seed))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	return runCampaign(ctx, target, c.Workload, c.Test, c.History, c.Config, rng)
}
