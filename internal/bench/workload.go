package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pace/internal/experiments"
	"pace/internal/loadgen"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/workload"
	"pace/internal/workloadgen"
)

// Workload-shaped cells: a load or capacity cell with a Workload field
// replaces the uniform open loop with a planned workloadgen stream —
// skew-rated clients, bursty arrivals, SLO classes — offered at the
// cell's mean rate. Because the spec's MeanQPS is overridden with the
// cell's QPS, a uniform cell and a bursty cell at the same QPS compare
// equal-mean offered load with different peaks, which is exactly the
// uniform-vs-bursty comparison.

// cellSchedule resolves a cell's workload (built-in profile name or
// spec file) and plans its stream over the cell's duration against the
// world's test pool, with query shapes fitted from the world's
// historical workload. The seed is a pure function of (suite seed, cell
// offset), so the planned stream is bit-identical across runs and
// machines.
func (r *runner) cellSchedule(c Cell, w *experiments.World, off int64, dur time.Duration) (*loadgen.Schedule, error) {
	spec, err := workloadgen.Builtin(c.Workload)
	if err != nil {
		spec, err = workloadgen.LoadSpec(c.Workload)
		if err != nil {
			return nil, fmt.Errorf("workload %q: %w", c.Workload, err)
		}
	}
	spec.Name = c.Workload
	spec.Seed = r.cfg.Seed*rowSeedK + off
	spec.Clients.MeanQPS = c.QPS // equal-mean comparison across cells
	shapes := workloadgen.FitShapes(workload.Queries(w.History))
	return workloadgen.Generate(spec, workload.Queries(w.Test), shapes, dur, r.opts.Workers)
}

// fireVia routes planned client identities at one tenant: one routed
// target per identity (lazily; they share the pool) so the server's
// per-client buckets see the planned population. The stats func sums
// wire counters across identities.
func fireVia(rc *remote.Client, tenant string, fallback *remote.RemoteTarget) (loadgen.Fire, func() remote.Stats) {
	var (
		mu      sync.Mutex
		targets = map[string]*remote.RemoteTarget{}
	)
	fire := func(ctx context.Context, client string, q *query.Query) (float64, error) {
		if client == "" {
			return fallback.EstimateContext(ctx, q)
		}
		mu.Lock()
		rt, ok := targets[client]
		if !ok {
			rt = rc.TargetAs(tenant, client)
			targets[client] = rt
		}
		mu.Unlock()
		return rt.EstimateContext(ctx, q)
	}
	stats := func() remote.Stats {
		sum := fallback.Stats()
		mu.Lock()
		defer mu.Unlock()
		for _, rt := range targets {
			s := rt.Stats()
			sum.Requests += s.Requests
			sum.Queries += s.Queries
			sum.Coalesced += s.Coalesced
			sum.Overloaded += s.Overloaded
			sum.Invalid += s.Invalid
			sum.Unavailable += s.Unavailable
			sum.BytesOut += s.BytesOut
			sum.BytesIn += s.BytesIn
			if s.Codec != sum.Codec {
				sum.Codec = s.Codec // a downgraded identity taints the lane
			}
		}
		return sum
	}
	return fire, stats
}

// classColumns flattens a report's per-SLO-class splits into Extra
// columns (class_<name>_latency_ms_p99, class_<name>_shed_fraction and
// class_<name>_offered), so trajectory diffs and jq one-liners see the
// class ledgers without a schema change.
func classColumns(rep loadgen.Report) map[string]float64 {
	if len(rep.Classes) == 0 {
		return nil
	}
	out := make(map[string]float64, 3*len(rep.Classes))
	for name, c := range rep.Classes {
		out["class_"+name+"_offered"] = float64(c.Offered)
		out["class_"+name+"_latency_ms_p99"] = c.LatencyMsP99
		out["class_"+name+"_shed_fraction"] = c.ShedFraction
	}
	return out
}
