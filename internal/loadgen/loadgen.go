// Package loadgen fires a planned request stream against an estimator
// target and reports what the service did with it: latency percentiles
// for served requests, how much was shed (429) and how much failed
// outright. It drives the target open-loop — every arrival fires at its
// planned offset whether or not earlier requests returned — because
// that is the arrival process a shedding server must survive: a
// closed-loop client would politely slow down exactly when the test
// should hurt.
//
// There is one firing loop, RunSchedule, and it fires a
// workloadgen.Schedule. A rate-only run is the built-in "uniform" spec
// (one client, Poisson arrivals at the asked mean rate); a realistic
// run is any other spec — skewed clients, bursty interarrivals,
// per-arrival SLO classes. Either way the Report splits outcomes per
// SLO class and per planned client, and Offered counts every planned
// arrival, so a report never claims a rate it did not offer. Arrivals
// the loop falls behind on fire at once; arrivals over the in-flight
// cap are booked as client drops.
package loadgen

import (
	"context"
	"errors"
	"sync"
	"time"

	"pace/internal/ce"
	"pace/internal/metrics"
	"pace/internal/remote"
)

// Config bounds the requests of one load run; the schedule defines
// their timing and the run's horizon.
type Config struct {
	// Timeout bounds each request (default 5s); a request that exceeds
	// it counts as an error, not a success with huge latency.
	Timeout time.Duration
	// MaxInFlight caps concurrent outstanding requests (default 4096).
	// When the cap is hit the generator counts a client-side drop
	// instead of blocking the schedule — the offered rate stays honest.
	MaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	return c
}

// ClassReport is one SLO class's slice of the ledger: counts and
// latency/shed percentiles over exactly the requests that class fired.
type ClassReport struct {
	Offered int64 `json:"offered"`
	Sent    int64 `json:"sent"`
	OK      int64 `json:"ok"`
	Shed    int64 `json:"shed_429"`
	// Errors folds invalid, unavailable and everything else — per-class
	// triage uses the top-level Report; the class split is about
	// service differentiation (who got served, who got shed, how fast).
	Errors        int64 `json:"errors"`
	ClientDropped int64 `json:"client_dropped"`

	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	ShedMsP99    float64 `json:"shed_ms_p99"`
	// ShedFraction is Shed/Offered — the class's probability of being
	// turned away, the headline of the uniform-vs-bursty comparison.
	ShedFraction float64 `json:"shed_fraction"`
}

// ClientReport is one client identity's outcome split.
type ClientReport struct {
	Class         string `json:"class,omitempty"`
	Offered       int64  `json:"offered"`
	Sent          int64  `json:"sent"`
	OK            int64  `json:"ok"`
	Shed          int64  `json:"shed_429"`
	Errors        int64  `json:"errors"`
	ClientDropped int64  `json:"client_dropped"`
}

// Report is the outcome of one load run. Latencies are milliseconds.
type Report struct {
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"` // completed (any outcome) per second
	DurationSec float64 `json:"duration_sec"`

	// Offered counts every planned arrival; each lands in exactly one
	// of the outcome buckets below or in ClientDropped. Sent counts the
	// arrivals that actually fired (Offered − ClientDropped), so one
	// arrival is never double-booked as both sent and dropped.
	Offered int64 `json:"offered"`
	Sent    int64 `json:"sent"`
	OK      int64 `json:"ok"`
	Shed    int64 `json:"shed_429"`
	Invalid int64 `json:"invalid"`
	// Unavailable counts retryable outages — network refusals and bare
	// 503s, the signature of a backend dying or failing over behind
	// pacerouter. Kept apart from Errors so a chaos run can assert
	// "outage happened, nothing actually broke" (errors == 0).
	Unavailable   int64 `json:"unavailable_503"`
	Errors        int64 `json:"errors"` // timeouts and everything else
	ClientDropped int64 `json:"client_dropped"`

	// Percentiles over served (OK) requests.
	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	LatencyMsMax float64 `json:"latency_ms_max"`
	// Shed latency: how quickly the server said 429 — load shedding
	// only helps if rejection is much cheaper than service.
	ShedMsP99 float64 `json:"shed_ms_p99"`

	// Classes and Clients split the ledger per SLO class and per
	// planned client (the schedule's roster ids, such as "c000"). A
	// rate-only run plans the one-client "uniform" spec, so it carries
	// one "default" class and one client even when every request fired
	// under the caller's own identity.
	Classes map[string]ClassReport  `json:"classes,omitempty"`
	Clients map[string]ClientReport `json:"clients,omitempty"`

	// Wire accounting, filled when the lane exposes its client's Stats:
	// the data codec that actually served the lane ("json" may appear
	// after a sticky 415 downgrade of a "binary" lane) and the request/
	// response body bytes it moved — the per-tenant bandwidth column
	// behind the codec comparison of BENCH.json's legacy remote/codec_v2
	// cells.
	Codec        string `json:"codec,omitempty"`
	WireBytesOut int64  `json:"wire_bytes_out,omitempty"`
	WireBytesIn  int64  `json:"wire_bytes_in,omitempty"`
}

// outcome is the classified result of one fired request.
type outcome int

const (
	outOK outcome = iota
	outShed
	outInvalid
	outUnavailable
	outError
)

// classify maps an estimate error onto the ledger's buckets.
func classify(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, remote.ErrOverloaded):
		return outShed
	case errors.Is(err, ce.ErrInvalidQuery):
		return outInvalid
	case errors.Is(err, remote.ErrUnavailable):
		return outUnavailable
	default:
		return outError
	}
}

// classAcc accumulates one SLO class's (or one client's latency-free)
// slice of the ledger under the collector's lock.
type classAcc struct {
	rep       ClassReport
	latencies []float64
	shedLats  []float64
}

// collector folds fired-request outcomes into a Report. One lock
// guards everything; request goroutines touch it once per completion.
type collector struct {
	mu        sync.Mutex
	rep       Report
	latencies []float64
	shedLats  []float64
	classes   map[string]*classAcc
	clients   map[string]*ClientReport
}

// record books one completed request of a client whose arrival is
// already booked.
func (c *collector) record(out outcome, ms float64, class, client string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ca, cl := c.classes[class], c.clients[client]
	ca.rep.Sent++
	cl.Sent++
	switch out {
	case outOK:
		c.rep.OK++
		c.latencies = append(c.latencies, ms)
		ca.rep.OK++
		ca.latencies = append(ca.latencies, ms)
		cl.OK++
		return
	case outShed:
		c.rep.Shed++
		c.shedLats = append(c.shedLats, ms)
		ca.rep.Shed++
		ca.shedLats = append(ca.shedLats, ms)
		cl.Shed++
		return
	case outInvalid:
		c.rep.Invalid++
	case outUnavailable:
		c.rep.Unavailable++
	case outError:
		c.rep.Errors++
	}
	ca.rep.Errors++
	cl.Errors++
}

// arrival books one planned arrival and whether it was dropped at the
// in-flight cap (one arrival, one outcome: dropped arrivals never also
// count as sent). A client's first arrival opens its split, stamped
// with the client's planned class.
func (c *collector) arrival(dropped bool, class, client string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.classes == nil {
		c.classes = make(map[string]*classAcc)
		c.clients = make(map[string]*ClientReport)
	}
	ca := c.classes[class]
	if ca == nil {
		ca = &classAcc{}
		c.classes[class] = ca
	}
	cl := c.clients[client]
	if cl == nil {
		cl = &ClientReport{Class: class}
		c.clients[client] = cl
	}
	c.rep.Offered++
	ca.rep.Offered++
	cl.Offered++
	if dropped {
		c.rep.ClientDropped++
		ca.rep.ClientDropped++
		cl.ClientDropped++
	} else {
		c.rep.Sent++
	}
}

// finish computes the derived columns and returns the report.
func (c *collector) finish(targetQPS float64, elapsed time.Duration) Report {
	rep := c.rep
	rep.TargetQPS = targetQPS
	rep.DurationSec = elapsed.Seconds()
	completed := rep.OK + rep.Shed + rep.Invalid + rep.Unavailable + rep.Errors
	if elapsed > 0 {
		rep.AchievedQPS = float64(completed) / elapsed.Seconds()
	}
	rep.LatencyMsP50 = metrics.Percentile(c.latencies, 50)
	rep.LatencyMsP90 = metrics.Percentile(c.latencies, 90)
	rep.LatencyMsP99 = metrics.Percentile(c.latencies, 99)
	rep.LatencyMsMax = metrics.Percentile(c.latencies, 100)
	rep.ShedMsP99 = metrics.Percentile(c.shedLats, 99)
	if len(c.classes) > 0 {
		rep.Classes = make(map[string]ClassReport, len(c.classes))
		for name, ca := range c.classes {
			cr := ca.rep
			cr.LatencyMsP50 = metrics.Percentile(ca.latencies, 50)
			cr.LatencyMsP90 = metrics.Percentile(ca.latencies, 90)
			cr.LatencyMsP99 = metrics.Percentile(ca.latencies, 99)
			cr.ShedMsP99 = metrics.Percentile(ca.shedLats, 99)
			if cr.Offered > 0 {
				cr.ShedFraction = float64(cr.Shed) / float64(cr.Offered)
			}
			rep.Classes[name] = cr
		}
	}
	if len(c.clients) > 0 {
		rep.Clients = make(map[string]ClientReport, len(c.clients))
		for name, cl := range c.clients {
			rep.Clients[name] = *cl
		}
	}
	return rep
}

// Lane is one tenant's traffic stream in a multi-tenant run: the
// planned stream it offers and how each arrival reaches the tenant.
type Lane struct {
	// Target names the lane in the ledger (the tenant id).
	Target string
	// Fire fires one estimate at the lane's tenant, either under the
	// planned client identity (ClientFire) or under the caller's own
	// (CallerFire).
	Fire Fire
	// Stats, when set, snapshots the lane's wire counters; the lane's
	// Report then carries the codec and byte columns as the delta
	// across the run.
	Stats func() remote.Stats
	// Schedule is the planned stream the lane fires (required).
	Schedule *Schedule
	// Config bounds the lane's requests.
	Config Config
}

// Ledger is the per-tenant outcome of a multi-tenant run: one Report per
// lane, keyed by target id. It is the evidence tenant isolation claims
// rest on — each tenant's served/shed/latency ledger is separate, so a
// hammered tenant's collapse is visible next to its neighbor's health.
type Ledger map[string]Report

// Aggregate folds a ledger into one fleet-level report: counts, rates
// and wire bytes sum across lanes (per-class and per-client splits
// included); latency percentiles take the worst lane (the isolation
// claim is "no lane degrades", so the aggregate's percentile column is
// the weakest tenant's); the codec column is kept only when every lane
// agrees. TargetQPS and AchievedQPS become the fleet's aggregate
// offered and admitted rates — the capacity-scaling column of the
// bench harness.
func (l Ledger) Aggregate() Report {
	var agg Report
	first := true
	for _, rep := range l {
		agg.TargetQPS += rep.TargetQPS
		agg.AchievedQPS += rep.AchievedQPS
		agg.Offered += rep.Offered
		agg.Sent += rep.Sent
		agg.OK += rep.OK
		agg.Shed += rep.Shed
		agg.Invalid += rep.Invalid
		agg.Unavailable += rep.Unavailable
		agg.Errors += rep.Errors
		agg.ClientDropped += rep.ClientDropped
		agg.WireBytesOut += rep.WireBytesOut
		agg.WireBytesIn += rep.WireBytesIn
		if rep.DurationSec > agg.DurationSec {
			agg.DurationSec = rep.DurationSec
		}
		for _, p := range []struct{ dst, src *float64 }{
			{&agg.LatencyMsP50, &rep.LatencyMsP50},
			{&agg.LatencyMsP90, &rep.LatencyMsP90},
			{&agg.LatencyMsP99, &rep.LatencyMsP99},
			{&agg.LatencyMsMax, &rep.LatencyMsMax},
			{&agg.ShedMsP99, &rep.ShedMsP99},
		} {
			if *p.src > *p.dst {
				*p.dst = *p.src
			}
		}
		for name, cr := range rep.Classes {
			if agg.Classes == nil {
				agg.Classes = make(map[string]ClassReport)
			}
			agg.Classes[name] = mergeClass(agg.Classes[name], cr)
		}
		for name, cl := range rep.Clients {
			if agg.Clients == nil {
				agg.Clients = make(map[string]ClientReport)
			}
			agg.Clients[name] = mergeClient(agg.Clients[name], cl)
		}
		if first {
			agg.Codec = rep.Codec
			first = false
		} else if agg.Codec != rep.Codec {
			agg.Codec = ""
		}
	}
	return agg
}

// mergeClass folds one lane's class slice into the aggregate: counts
// sum, percentiles take the worst lane, and the shed fraction is
// recomputed over the summed counts.
func mergeClass(a, b ClassReport) ClassReport {
	a.Offered += b.Offered
	a.Sent += b.Sent
	a.OK += b.OK
	a.Shed += b.Shed
	a.Errors += b.Errors
	a.ClientDropped += b.ClientDropped
	for _, p := range []struct{ dst, src *float64 }{
		{&a.LatencyMsP50, &b.LatencyMsP50},
		{&a.LatencyMsP90, &b.LatencyMsP90},
		{&a.LatencyMsP99, &b.LatencyMsP99},
		{&a.ShedMsP99, &b.ShedMsP99},
	} {
		if *p.src > *p.dst {
			*p.dst = *p.src
		}
	}
	if a.Offered > 0 {
		a.ShedFraction = float64(a.Shed) / float64(a.Offered)
	}
	return a
}

func mergeClient(a, b ClientReport) ClientReport {
	if a.Class == "" {
		a.Class = b.Class
	}
	a.Offered += b.Offered
	a.Sent += b.Sent
	a.OK += b.OK
	a.Shed += b.Shed
	a.Errors += b.Errors
	a.ClientDropped += b.ClientDropped
	return a
}

// RunLanes fires every lane's schedule concurrently against its own
// tenant and collects the per-tenant ledger. ctx cancels all lanes.
func RunLanes(ctx context.Context, lanes []Lane) Ledger {
	reports := make([]Report, len(lanes))
	var wg sync.WaitGroup
	for i, lane := range lanes {
		wg.Add(1)
		go func(i int, lane Lane) {
			defer wg.Done()
			var before remote.Stats
			if lane.Stats != nil {
				before = lane.Stats()
			}
			rep := RunSchedule(ctx, lane.Fire, lane.Schedule, lane.Config)
			if lane.Stats != nil {
				after := lane.Stats()
				rep.Codec = after.Codec
				rep.WireBytesOut = after.BytesOut - before.BytesOut
				rep.WireBytesIn = after.BytesIn - before.BytesIn
			}
			reports[i] = rep
		}(i, lane)
	}
	wg.Wait()
	ledger := make(Ledger, len(lanes))
	for i, lane := range lanes {
		ledger[lane.Target] = reports[i]
	}
	return ledger
}
