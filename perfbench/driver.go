package main

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/workloadgen"
)

// outcome classifies one due arrival.
type outcome uint8

const (
	unsent  outcome = iota // due, but the phase closed before a connection took it
	ok                     // answered
	shed                   // refused by admission (429, or 503 with Retry-After)
	timeout                // the per-request deadline passed
	failed                 // any other error
)

// sample is one due arrival's timeline, as offsets from phase start:
// due is when the schedule wanted it sent, released when the dispatcher
// handed it to the connection pool, sent when a connection took it and
// done when the reply (or error) came back.
type sample struct {
	due, released, sent, done time.Duration
	out                       outcome
}

// fire runs one open-loop phase. Arrival i becomes due at due[i]
// (ascending offsets from phase start); one dispatcher releases each at
// its due time to conns workers, each a single in-flight request, which
// take released arrivals in order and call do. Latency is measured from
// the due time, so a stall shows on every arrival queued behind it. The
// phase closes grace after the last due time: arrivals no worker took by
// then stay unsent. Every request runs under its own timeout.
func fire(ctx context.Context, due []time.Duration, conns int, timeoutD, grace time.Duration,
	do func(ctx context.Context, i int) error) []sample {
	samples := make([]sample, len(due))
	for i := range samples {
		samples[i] = sample{due: due[i], out: unsent}
	}
	if len(due) == 0 {
		return samples
	}
	start := time.Now()
	closeCtx, cancel := context.WithDeadline(ctx, start.Add(due[len(due)-1]+grace))
	defer cancel()

	// Buffered for every arrival: the dispatcher never blocks on a busy
	// pool, so its lateness is its own, not the workers'.
	released := make(chan int, len(due))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case i, more := <-released:
					if !more || closeCtx.Err() != nil {
						return
					}
					s := &samples[i]
					s.sent = time.Since(start)
					rctx, rcancel := context.WithTimeout(ctx, timeoutD)
					err := do(rctx, i)
					rcancel()
					s.done = time.Since(start)
					s.out = classify(err)
				case <-closeCtx.Done():
					return
				}
			}
		}()
	}

	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-closeCtx.Done():
				break dispatch
			}
		}
		samples[i].released = time.Since(start)
		released <- i
	}
	close(released)
	wg.Wait()
	return samples
}

func classify(err error) outcome {
	switch {
	case err == nil:
		return ok
	case errors.Is(err, remote.ErrOverloaded):
		return shed
	case errors.Is(err, context.DeadlineExceeded):
		return timeout
	default:
		return failed
	}
}

// tally summarizes a phase's samples.
type tally struct {
	due, ok, shed, timeouts, failed, unsent int
	// latMs is the from-due latency of answered arrivals; lagMs is send
	// time minus due time of every sent arrival (generator lateness plus
	// waiting for a free connection); genLagMs is the dispatcher's own
	// lateness.
	latMs, lagMs, genLagMs []float64
}

func summarize(samples []sample) tally {
	t := tally{due: len(samples)}
	for _, s := range samples {
		switch s.out {
		case unsent:
			t.unsent++
			continue
		case ok:
			t.ok++
			t.latMs = append(t.latMs, ms(s.done-s.due))
		case shed:
			t.shed++
		case timeout:
			t.timeouts++
		case failed:
			t.failed++
		}
		t.lagMs = append(t.lagMs, ms(s.sent-s.due))
		t.genLagMs = append(t.genLagMs, ms(s.released-s.due))
	}
	return t
}

func (t tally) add(o tally) tally {
	t.due += o.due
	t.ok += o.ok
	t.shed += o.shed
	t.timeouts += o.timeouts
	t.failed += o.failed
	t.unsent += o.unsent
	t.latMs = append(append([]float64(nil), t.latMs...), o.latMs...)
	t.lagMs = append(append([]float64(nil), t.lagMs...), o.lagMs...)
	t.genLagMs = append(append([]float64(nil), t.genLagMs...), o.genLagMs...)
	return t
}

// failures counts due arrivals that were not answered: shed, errors,
// timeouts and those never sent.
func (t tally) failures() int { return t.shed + t.timeouts + t.failed + t.unsent }

func (t tally) failShare() float64 {
	if t.due == 0 {
		return 0
	}
	return float64(t.failures()) / float64(t.due)
}

// latencyQ is the q-quantile of from-due latency over all due arrivals,
// a failed or unsent one counting as infinitely late.
func (t tally) latencyQ(q float64) float64 {
	if t.due == 0 {
		return math.Inf(1)
	}
	rank := int(math.Ceil(q*float64(t.due))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(t.latMs) {
		return math.Inf(1)
	}
	s := append([]float64(nil), t.latMs...)
	sort.Float64s(s)
	return s[rank]
}

// sloLimits is what a rung of the slo_qps ladder must meet.
type sloLimits struct {
	p99Ms     float64 // from-due p99 latency, failures counting as late
	failShare float64
	lagP99Ms  float64 // backlog bound: send − due p99
}

// passes reports whether a phase met the limits; why names the first
// condition it missed.
func (l sloLimits) passes(t tally) (pass bool, why string) {
	switch {
	case t.failShare() > l.failShare:
		return false, "fail_share"
	case t.latencyQ(0.99) > l.p99Ms:
		return false, "p99"
	case quantile(t.lagMs, 0.99) > l.lagP99Ms:
		return false, "lag"
	}
	return true, ""
}

// poissonDue plans a Poisson arrival stream of rate qps over horizon
// with workloadgen, returning due offsets and each arrival's query index
// into pool.
func poissonDue(seed int64, qps float64, horizon time.Duration, pool []*query.Query) ([]time.Duration, []int, error) {
	spec := workloadgen.Spec{
		Seed:    seed,
		Clients: workloadgen.ClientSpec{N: 1, MeanQPS: qps, RateDist: "uniform"},
		Arrival: workloadgen.ArrivalSpec{Process: "poisson"},
	}
	sched, err := workloadgen.Generate(spec, pool, nil, horizon, 0)
	if err != nil {
		return nil, nil, err
	}
	due := make([]time.Duration, len(sched.Arrivals))
	qi := make([]int, len(sched.Arrivals))
	for i, a := range sched.Arrivals {
		due[i], qi[i] = a.T, a.Query
	}
	return due, qi, nil
}

// loopbackClient is the load driver's HTTP client: at most conns
// connections to any host, so the connection cap is real.
func loopbackClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}}
}
