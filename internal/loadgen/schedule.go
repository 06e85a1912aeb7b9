package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/workloadgen"
)

// Schedule aliases the workloadgen plan so lane construction reads
// naturally without every caller importing both packages.
type Schedule = workloadgen.Schedule

// Fire fires one estimate on behalf of a planned client. A Fire may
// send the client id as X-Pace-Client (ClientFire), so the server's
// per-client token buckets see the planned population, or ignore it
// (CallerFire).
type Fire func(ctx context.Context, client string, q *query.Query) (float64, error)

// CallerFire fires every arrival at t under the caller's own identity,
// ignoring the planned client id: the fire of rate-only runs and of
// in-process targets, which have no per-client identity to present.
func CallerFire(t ce.Target) Fire {
	return func(ctx context.Context, _ string, q *query.Query) (float64, error) {
		return t.EstimateContext(ctx, q)
	}
}

// ClientFire routes each planned client identity at one tenant of rc:
// one routed target per identity (created lazily; they share rc's
// connection pool), so the server sees X-Pace-Client per planned
// client rather than one monolithic generator. The stats func sums the
// wire counters across every identity, so the lane's byte and codec
// columns cover the whole population; an identity downgraded to JSON
// by a 415 taints the lane's codec.
func ClientFire(rc *remote.Client, tenant string) (Fire, func() remote.Stats) {
	var (
		mu      sync.Mutex
		targets = map[string]*remote.RemoteTarget{}
	)
	// An unused target reports the configured codec and zero counters.
	configured := rc.Target(tenant).Stats().Codec
	fire := func(ctx context.Context, client string, q *query.Query) (float64, error) {
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
		sum := remote.Stats{Codec: configured}
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
			if s.Codec != configured {
				sum.Codec = s.Codec
			}
		}
		return sum
	}
	return fire, stats
}

// RunSchedule fires a planned request stream open-loop: every arrival
// fires at its planned offset from run start (or at once when the loop
// is behind), whether or not earlier requests returned, and the run
// ends when the last fired request does. The report splits outcomes
// per SLO class and per planned client on top of the ledger. ctx
// cancels the run early.
func RunSchedule(ctx context.Context, fire Fire, sched *Schedule, cfg Config) Report {
	cfg = cfg.withDefaults()

	var (
		col      collector
		inFlight atomic.Int64
		wg       sync.WaitGroup
	)

	start := time.Now()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
loop:
	for _, a := range sched.Arrivals {
		if wait := a.T - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				break loop
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break loop
		}
		client := sched.Clients[a.Client]
		q := sched.Queries[a.Query]
		dropped := inFlight.Load() >= int64(cfg.MaxInFlight)
		col.arrival(dropped, client.Class, client.ID)
		if dropped {
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(client workloadgen.Client, q *query.Query) {
			defer wg.Done()
			defer inFlight.Add(-1)
			rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
			defer cancel()
			t0 := time.Now()
			_, err := fire(rctx, client.ID, q)
			ms := float64(time.Since(t0).Microseconds()) / 1e3
			col.record(classify(err), ms, client.Class, client.ID)
		}(client, q)
	}
	wg.Wait()
	return col.finish(sched.Spec.Clients.MeanQPS, time.Since(start))
}
