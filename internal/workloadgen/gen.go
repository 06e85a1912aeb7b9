package workloadgen

import (
	"fmt"
	"sort"
	"time"

	"pace/internal/engine"
	"pace/internal/query"
)

// Arrival is one planned request: when it fires (offset from schedule
// start), who fires it, and what it asks. Client and Query index into
// the owning Schedule's rosters — the trace stays compact and the
// identity of every draw is explicit.
type Arrival struct {
	T      time.Duration
	Client int
	Query  int
}

// Schedule is a fully-planned request stream: the canonical spec that
// produced it, the client roster, the query pool arrivals reference,
// and the time-ordered arrivals themselves. A Schedule is immutable
// once generated; replaying it (loadgen.RunSchedule) or recording it
// (WriteTrace) never mutates it.
type Schedule struct {
	Spec     Spec
	Clients  []Client
	Queries  []*query.Query
	Arrivals []Arrival
}

// Class returns the SLO class of an arrival.
func (s *Schedule) Class(a Arrival) string { return s.Clients[a.Client].Class }

// maxArrivals caps a schedule so a typo'd rate or horizon fails fast
// instead of planning an unbounded stream.
const maxArrivals = 2_000_000

// Generate plans the spec's request stream over the horizon against the
// replay pool. shapes may be nil (uniform draws over the pool) or a
// distribution fitted from a source workload (FitShapes). workers
// bounds the per-client fan-out (0 serial, negative all cores); the
// result is bit-identical at any setting because client k's arrivals
// and query draws come only from splitmix64 streams (seed, 2k) and
// (seed, 2k+1), and the merged order is a pure function of the
// arrivals: sort by (T, client), ties impossible within one client
// (interarrivals are > 0 almost surely, and equal-T cross-client
// arrivals order by client index).
func Generate(spec Spec, pool []*query.Query, shapes *ShapeDist, horizon time.Duration, workers int) (*Schedule, error) {
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("workloadgen: empty query pool")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workloadgen: horizon %v <= 0", horizon)
	}
	if expect := spec.Clients.MeanQPS * horizon.Seconds(); expect > maxArrivals {
		return nil, fmt.Errorf("workloadgen: %v at %.0f qps plans ~%.0f arrivals (cap %d)",
			horizon, spec.Clients.MeanQPS, expect, maxArrivals)
	}

	sched := &Schedule{Spec: spec, Clients: population(spec)}
	sched.Queries = append([]*query.Query(nil), pool...)
	sampler := NewSampler(shapes, sched.Queries)

	perClient := make([][]Arrival, len(sched.Clients))
	engine.PoolFor(workers).ForEach(len(sched.Clients), func(i int) {
		perClient[i] = clientArrivals(spec, sched.Clients[i], i, sampler, horizon)
	})

	total := 0
	for _, as := range perClient {
		total += len(as)
	}
	sched.Arrivals = make([]Arrival, 0, total)
	for _, as := range perClient {
		sched.Arrivals = append(sched.Arrivals, as...)
	}
	sort.SliceStable(sched.Arrivals, func(i, j int) bool {
		a, b := sched.Arrivals[i], sched.Arrivals[j]
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Client < b.Client
	})
	return sched, nil
}

// clientArrivals plans one client's stream from its two private RNG
// streams: interarrivals (and on/off windows) from (seed, 2i), query
// draws from (seed, 2i+1). Zero-rate clients fire nothing.
func clientArrivals(spec Spec, c Client, i int, sampler *Sampler, horizon time.Duration) []Arrival {
	if c.Rate <= 0 {
		return nil
	}
	arrRng := engine.SplitRNG(spec.Seed, int64(2*i))
	qRng := engine.SplitRNG(spec.Seed, int64(2*i+1))
	sample := meanOneSampler(spec.Arrival)

	// Burst gating: the renewal process runs in "active" time at a
	// boosted rate; the clock stretches active time over on/off wall
	// windows so the mean offered rate stays c.Rate.
	rate := c.Rate * spec.Arrival.OnOff.boost()
	var clock *onOffClock
	if spec.Arrival.OnOff != nil {
		clock = newOnOffClock(arrRng, spec.Arrival.OnOff)
	}

	var out []Arrival
	var wall float64 // wall-time cursor without gating, seconds
	for {
		d := sample(arrRng) / rate
		if clock != nil {
			wall = clock.advance(d)
		} else {
			wall += d
		}
		t := time.Duration(wall * float64(time.Second))
		if t >= horizon || len(out) >= maxArrivals {
			return out
		}
		out = append(out, Arrival{T: t, Client: i, Query: sampler.Draw(qRng)})
	}
}
