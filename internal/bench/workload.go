package bench

import (
	"fmt"
	"time"

	"pace/internal/experiments"
	"pace/internal/loadgen"
	"pace/internal/remote"
	"pace/internal/workload"
	"pace/internal/workloadgen"
)

// Every load and capacity cell fires a planned workloadgen stream at
// the cell's mean rate: the cell's Workload (a built-in profile or a
// spec file), or the "uniform" built-in when it has none. Because the
// spec's MeanQPS is overridden with the cell's QPS, a uniform cell and
// a bursty cell at the same QPS compare equal-mean offered load with
// different peaks, which is exactly the uniform-vs-bursty comparison.

// cellSchedule resolves a cell's workload and plans its stream over the
// cell's duration against the world's test pool, with query shapes
// fitted from the world's historical workload. The seed is a pure
// function of (suite seed, cell offset), so the planned stream is
// bit-identical across runs and machines.
func (r *runner) cellSchedule(c Cell, w *experiments.World, off int64, dur time.Duration) (*loadgen.Schedule, error) {
	name := c.Workload
	if name == "" {
		name = "uniform"
	}
	spec, err := workloadgen.Builtin(name)
	if err != nil {
		spec, err = workloadgen.LoadSpec(name)
		if err != nil {
			return nil, fmt.Errorf("workload %q: %w", name, err)
		}
	}
	spec.Name = name
	spec.Seed = r.cfg.Seed*rowSeedK + off
	spec.Clients.MeanQPS = c.QPS // equal-mean comparison across cells
	shapes := workloadgen.FitShapes(workload.Queries(w.History))
	return workloadgen.Generate(spec, workload.Queries(w.Test), shapes, dur, r.opts.Workers)
}

// laneFire fires a remote lane at one tenant of rc. A workload cell
// presents its planned client population, one X-Pace-Client per
// planned client; a rate-only cell fires under the harness's own
// identity, as one client would.
func laneFire(c Cell, rc *remote.Client, tenant string) (loadgen.Fire, func() remote.Stats) {
	if c.Workload != "" {
		return loadgen.ClientFire(rc, tenant)
	}
	rt := rc.Target(tenant)
	return loadgen.CallerFire(rt), rt.Stats
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
