package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/experiments"
	"pace/internal/query"
	"pace/internal/wire"
	"pace/internal/workload"
)

// Serving-path settings. The fleet runs with paced's defaults (64-query
// micro-batches, 200µs gather window, 128-deep admission queue).
const (
	// serve_point: a reference phase at a fixed moderate rate gives the
	// latency metrics; the slo_qps ladder's rungs then run from
	// ladderBase up in ladderStep increments.
	pointRefQPS  = 300
	refWindows   = 8 // at 30s runs, ~4500 arrivals in all: p99 keeps 45 samples beyond it
	warmUpFor    = time.Second
	ladderBase   = 100
	ladderStep   = 1.05
	ladderRungs  = 80
	ladderGallop = 4
	probeSamples = 1200 // per probe: p99 keeps ten samples beyond it
	minProbe     = 1200 * time.Millisecond

	// serve_rw: open-loop 64-query reads beside one closed-loop writer
	// posting 64-query execute batches every writeEvery. Readers and the
	// writer share the capped connection pool. The cadence keeps retrains
	// (~100 ms each on the 2-core reference box) to about a quarter of
	// the model goroutine's time: much more, and reads blocked behind a
	// retrain reach the median, which then jumps between the two modes.
	rwReadQPS   = 20
	rwBatch     = 64
	writeEvery  = 500 * time.Millisecond
	reqTimeout  = 2 * time.Second
	execTimeout = 10 * time.Second
	phaseGrace  = time.Second
)

// pointLimits is the slo_qps ladder's pass condition.
var pointLimits = sloLimits{p99Ms: 20, failShare: 0.001, lagP99Ms: 20}

// reqSeq numbers served requests across a run; every layer sees the
// number through the client identity header.
var reqSeq atomic.Int64

// setupFleet builds the fleet at least o.setups times and for at least
// o.setupFor, keeping the last one, and returns the median unstolen
// build time.
// A fleet build is the world build, victim training, server and router
// boot, and tenant provisioning.
func setupFleet(ctx context.Context, spec wire.TargetSpec, o opts) (*fleet, float64, error) {
	var times []float64
	var f *fleet
	for begin := time.Now(); len(times) < o.setups || time.Since(begin) < o.setupFor; {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, 0, fmt.Errorf("fleet shutdown: %w", err)
			}
			runtime.GC() // drop the previous fleet before the next one
		}
		start, host0 := time.Now(), readHostCPU()
		var err error
		if f, err = startFleet(ctx, spec, o.conns, o.rec); err != nil {
			return nil, 0, err
		}
		times = append(times, unstolen(time.Since(start), host0, readHostCPU()).Seconds())
	}
	return f, median(times), nil
}

// twinWorld rebuilds, in process, the world a fleet tenant hosts.
func twinWorld(seed int64) (*experiments.World, error) {
	return experiments.NewWorld("dmv", experiments.Config{Seed: seed}.WithDefaults())
}

// queryPool is the world's train, test and history queries: the shapes
// an optimizer over this schema asks about.
func queryPool(w *experiments.World) []*query.Query {
	var qs []*query.Query
	for _, set := range [][]workload.Labeled{w.Train, w.Test, w.History} {
		qs = append(qs, workload.Queries(set)...)
	}
	return qs
}

// repeatShare is the share of requests whose query key appeared in an
// earlier request of the run.
func repeatShare(keys []string) float64 {
	if len(keys) == 0 {
		return 0
	}
	seen := map[string]bool{}
	rep := 0
	for _, k := range keys {
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(len(keys))
}

// pointPhase fires single-query estimates at the given schedule and
// counts answers that differ from the in-process twin's (want; nil
// skips the check).
func (f *fleet) pointPhase(ctx context.Context, o opts, due []time.Duration, qi []int,
	pool []*query.Query, want []float64) ([]sample, int64) {
	var mismatch atomic.Int64
	samples := fire(ctx, due, o.conns, reqTimeout, phaseGrace, func(ctx context.Context, i int) error {
		req := reqSeq.Add(1)
		t := f.target(req)
		var start int64
		if o.rec != nil {
			start = o.rec.now()
		}
		est, err := t.EstimateContext(ctx, pool[qi[i]])
		if o.rec != nil {
			o.rec.add(0, "remote.call", req, start, o.rec.now())
		}
		if err == nil && want != nil && math.Float64bits(est) != math.Float64bits(want[qi[i]]) {
			mismatch.Add(1)
		}
		return err
	})
	return samples, mismatch.Load()
}

func runServePoint(ctx context.Context, o opts) (*runResult, error) {
	spec := wire.TargetSpec{ID: tenantID, Dataset: "dmv", Model: "fcn", Seed: o.seed, SeedOffset: 1}
	f, setupS, err := setupFleet(ctx, spec, o)
	if err != nil {
		return nil, err
	}
	defer f.close()

	w, err := twinWorld(o.seed)
	if err != nil {
		return nil, err
	}
	twin := w.NewBlackBox(ce.FCN, 1)
	pool := queryPool(w)
	want := make([]float64, len(pool))
	for i, q := range pool {
		if want[i], err = twin.EstimateContext(ctx, q); err != nil {
			return nil, err
		}
	}
	before, err := f.testQError(ctx, w)
	if err != nil {
		return nil, err
	}

	// The reference phase runs as refWindows windows, each its own
	// seeded schedule, spread over the run between ladder probes.
	res := newRunResult()
	var (
		samples []sample
		opMs    []float64 // answered requests' latency, steal taken out
		keys    []string
		windows []map[string]any
		cpuS    []float64 // per window
		rss     []float64
		spans   []span
		batches batchStats
		alloc   uint64
	)
	window := func() error {
		due, qi, err := poissonDue(o.seed*100+int64(len(windows)), pointRefQPS, o.phase(0.5/refWindows), pool)
		if err != nil {
			return err
		}
		// Let the previous probe's queue drain and its garbage go first,
		// returned to the OS, so the window's sampled peak RSS is its own.
		time.Sleep(200 * time.Millisecond)
		debug.FreeOSMemory()
		var ms0, ms1 runtime.MemStats
		batch0 := f.batchStats()
		runtime.ReadMemStats(&ms0)
		stop := make(chan struct{})
		peak := rssPeak(stop)
		from, cpu0, host0, start := o.rec.mark(), cpuTime(), readHostCPU(), time.Now()
		ws, mism := f.pointPhase(ctx, o, due, qi, pool, want)
		wall, host1 := time.Since(start), readHostCPU()
		cpuS = append(cpuS, (cpuTime() - cpu0).Seconds())
		close(stop)
		rss = append(rss, <-peak)
		// A request waits on timers and the network most of its time,
		// so it loses to steal about the window's stolen share per CPU.
		stolen, lat := stolenShare(wall, host0, host1), summarize(ws).latMs
		for _, l := range lat {
			opMs = append(opMs, l*(1-stolen))
		}
		windows = append(windows, map[string]any{"p50_ms": round(quantile(lat, 0.5), 3),
			"p99_ms": round(quantile(lat, 0.99), 3), "steal": round(stealShare(host0, host1), 4),
			"stolen": round(stolen, 4)})
		res.check(mism == 0, fmt.Sprintf("serve_point: %d reference-phase estimates differ from the in-process twin", mism))
		if o.rec != nil {
			spans = append(spans, o.rec.window(from, o.rec.now())...)
		}
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		batches = batches.plus(f.batchStats().minus(batch0))
		samples = append(samples, ws...)
		for _, k := range qi {
			keys = append(keys, pool[k].Key())
		}
		return nil
	}
	if err := f.warmUp(ctx, o, pool, want, res); err != nil {
		return nil, err
	}
	if err := window(); err != nil {
		return nil, err
	}

	// Start the ladder near the knee the first window predicts: with
	// conns connections each busy for one round trip, the fleet cannot
	// serve more than conns/RTT requests a second. Every probe hands
	// over to the next reference window.
	start := rungAt(0.8 * float64(o.conns) / (quantile(summarize(samples).latMs, 0.5) / 1000))
	slo, rungs, err := f.ladder(ctx, o, res, start, pool, want, func() error {
		if len(windows) == refWindows {
			return nil
		}
		return window()
	})
	if err != nil {
		return nil, err
	}
	for len(windows) < refWindows {
		if err := window(); err != nil {
			return nil, err
		}
	}
	ref := summarize(samples)
	res.count(ref)
	after, err := f.testQError(ctx, w)
	if err != nil {
		return nil, err
	}

	// est_p99_ms and slo_qps are reported but not gated: steal from the
	// shared 2-core reference box's other guests lasts seconds to
	// minutes and takes 10–50% of the CPU this workload asks for, which
	// at times doubles both, so they cannot hold a regression bound.
	res.e2e("setup_s", setupS, "s")
	res.e2e("op_ms", quantile(opMs, 0.5), "ms")
	res.e2e("degradation", after/before, "ratio")
	// The windows are alike, so a median window stands for each: one
	// window that caught a collection of the previous probe's garbage
	// does not move the figure.
	res.e2e("cpu_s", median(cpuS)*refWindows, "s")
	res.e2e("peak_rss_mb", median(rss), "MB")
	res.info["window_cpu_s"] = cpuS
	res.info["est_p50_ms_with_steal"] = quantile(ref.latMs, 0.5)
	res.info["process_peak_rss_mb"] = peakRSSMB()
	res.info["est_p99_ms"] = quantile(ref.latMs, 0.99)
	res.info["slo_qps"] = slo
	res.info["fail_share"] = ref.failShare()
	res.info["ladder"] = rungs
	res.info["reference_phase"] = phaseInfo(ref)
	res.info["reference_windows"] = windows
	res.props = workloadProps(o, repeatShare(keys), 1, len(keys), 0)

	if o.rec != nil {
		lay := analyzeServe(spans, o.rec.frameList(), f.meta)
		lay.set(res, ref, batches, alloc)
	}
	return res, nil
}

// testQError is the mean Q-error of the fleet-served model on the
// world's test set, asked over the wire.
func (f *fleet) testQError(ctx context.Context, w *experiments.World) (float64, error) {
	return testQError(ctx, w, f.target(reqSeq.Add(1)))
}

// warmUp sends single-query estimates at the reference rate for
// warmUpFor, unmeasured, so connections are open and lazy set-up is done
// before timing starts; then it collects the set-up's garbage. Answers
// are checked against want when it is given.
func (f *fleet) warmUp(ctx context.Context, o opts, pool []*query.Query, want []float64, res *runResult) error {
	due, qi, err := poissonDue(o.seed*100+99, pointRefQPS, warmUpFor, pool)
	if err != nil {
		return err
	}
	_, mism := f.pointPhase(ctx, o, due, qi, pool, want)
	res.check(mism == 0, fmt.Sprintf("%d warm-up estimates differ from the in-process twin", mism))
	runtime.GC()
	return nil
}

func rungRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// rungAt is the highest rung at or below qps, clamped to the ladder.
func rungAt(qps float64) int {
	k := int(math.Floor(math.Log(qps/ladderBase) / math.Log(ladderStep)))
	return min(max(k, 0), ladderRungs-1)
}

// ladder finds slo_qps: the highest rung whose probe meets pointLimits.
// From the start rung it gallops in steps of ladderGallop rungs toward
// the knee, then bisects the last bracket. A rung fails only when two
// probes in a row miss the limits, so one stall on the shared box does
// not sink the figure. Each probe's schedule is seeded by the run seed
// and the rung index. after runs once after every probe.
// Probes above the knee overload the fleet on purpose, so their failed
// arrivals are the measurement, not failed operations: they are not
// booked on res.
func (f *fleet) ladder(ctx context.Context, o opts, res *runResult, start int,
	pool []*query.Query, want []float64, after func() error) (float64, []map[string]any, error) {
	var rungs []map[string]any
	probe := func(k int) (bool, error) {
		rate := rungRate(k)
		dur := time.Duration(float64(probeSamples) / rate * float64(time.Second))
		if dur < minProbe {
			dur = minProbe
		}
		due, qi, err := poissonDue(o.seed*1000+int64(k), rate, dur, pool)
		if err != nil {
			return false, err
		}
		time.Sleep(200 * time.Millisecond) // let the previous probe drain
		host0 := readHostCPU()
		ps, mism := f.pointPhase(ctx, o, due, qi, pool, want)
		steal := stealShare(host0, readHostCPU())
		pt := summarize(ps)
		res.check(mism == 0, fmt.Sprintf("serve_point: %d ladder estimates differ from the in-process twin", mism))
		pass, why := pointLimits.passes(pt)
		rungs = append(rungs, map[string]any{"qps": round(rate, 1), "pass": pass, "why": why,
			"p99_ms": round(pt.latencyQ(0.99), 3), "lag_p99_ms": round(quantile(pt.lagMs, 0.99), 3),
			"fail_share": round(pt.failShare(), 5), "steal": round(steal, 4)})
		return pass, after()
	}
	passes := func(k int) (bool, error) {
		pass, err := probe(k)
		if err != nil || pass {
			return pass, err
		}
		return probe(k)
	}

	lo, hi := -1, ladderRungs
	k := start
	for {
		pass, err := passes(k)
		if err != nil {
			return 0, nil, err
		}
		if pass {
			lo = k
			k += ladderGallop
		} else {
			hi = k
			k -= ladderGallop
		}
		if k <= lo || k >= hi {
			break
		}
		k = min(max(k, lo+1), hi-1)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pass, err := passes(mid)
		if err != nil {
			return 0, nil, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, rungs, nil
	}
	return rungRate(lo), rungs, nil
}

func runServeRW(ctx context.Context, o opts) (*runResult, error) {
	spec := wire.TargetSpec{ID: tenantID, Dataset: "dmv", Model: "lstm", Seed: o.seed, SeedOffset: 1}
	f, setupS, err := setupFleet(ctx, spec, o)
	if err != nil {
		return nil, err
	}
	defer f.close()
	bc, err := f.batchClient(time.Second)
	if err != nil {
		return nil, err
	}
	defer bc.Close()

	w, err := twinWorld(o.seed)
	if err != nil {
		return nil, err
	}
	pool := queryPool(w)
	labeled := append(append([]workload.Labeled(nil), w.Train...), w.History...)
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(labeled), func(i, j int) { labeled[i], labeled[j] = labeled[j], labeled[i] })

	horizon := o.phase(1)
	due, _, err := poissonDue(o.seed, rwReadQPS, horizon, pool)
	if err != nil {
		return nil, err
	}
	reads := make([][]*query.Query, len(due))
	var keys []string
	for i := range reads {
		reads[i] = make([]*query.Query, rwBatch)
		for k := range reads[i] {
			reads[i][k] = pool[rng.Intn(len(pool))]
			keys = append(keys, reads[i][k].Key())
		}
	}
	nWrites := int(horizon / writeEvery)
	writes := make([][]workload.Labeled, nWrites)
	for j := range writes {
		writes[j] = make([]workload.Labeled, rwBatch)
		for k := range writes[j] {
			writes[j][k] = labeled[(j*rwBatch+k)%len(labeled)]
		}
	}

	res := newRunResult()
	if err := f.warmUp(ctx, o, pool, nil, res); err != nil {
		return nil, err
	}
	before, err := f.testQError(ctx, w)
	if err != nil {
		return nil, err
	}
	batch0 := f.batchStats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	from := o.rec.mark()

	var (
		wg      sync.WaitGroup
		wsample []sample
		acked   int
	)
	host0 := readHostCPU()
	wg.Add(1)
	go func() {
		defer wg.Done()
		wsample, acked = f.writer(ctx, o, writes)
	}()
	var split atomic.Int64
	rsamples := fire(ctx, due, o.conns, reqTimeout, phaseGrace, func(ctx context.Context, i int) error {
		req := reqSeq.Add(1)
		t := bc.TargetAs(tenantID, reqClientID(req))
		var start int64
		if o.rec != nil {
			start = o.rec.now()
		}
		err := estimateAll(ctx, t, reads[i])
		if o.rec != nil {
			o.rec.add(0, "remote.call", req, start, o.rec.now())
		}
		if n := t.Stats().Requests; n != 1 {
			split.Add(1)
		}
		return err
	})
	wg.Wait()
	steal := stealShare(host0, readHostCPU())
	to := o.rec.mark()
	cpuS := (cpuTime() - cpu0).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	batches := f.batchStats().minus(batch0)
	rt, wt := summarize(rsamples), summarize(wsample)
	res.count(rt)
	res.count(wt)
	res.check(split.Load() == 0, fmt.Sprintf("serve_rw: %d reads did not travel as one 64-query request", split.Load()))

	// After the writer's last acknowledged batch, the wire must answer
	// the whole test set exactly as a twin that applied the same batches
	// in the same order.
	twin := w.NewBlackBox(ce.LSTM, 1)
	for _, b := range writes[:acked] {
		if err := twin.ExecuteWorkload(ctx, workload.Queries(b), experiments.Cards(b)); err != nil {
			return nil, err
		}
	}
	mism := 0
	for _, q := range workload.Queries(w.Test) {
		got, err := f.target(reqSeq.Add(1)).EstimateContext(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("final test-set estimate: %w", err)
		}
		exp, err := twin.EstimateContext(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("twin estimate: %w", err)
		}
		if math.Float64bits(got) != math.Float64bits(exp) {
			mism++
		}
	}
	res.check(mism == 0, fmt.Sprintf("serve_rw: %d of %d test estimates differ from the twin after %d batches", mism, len(w.Test), acked))
	res.check(acked == len(writes), fmt.Sprintf("serve_rw: only %d of %d write batches acknowledged", acked, len(writes)))

	after, err := f.testQError(ctx, w)
	if err != nil {
		return nil, err
	}
	all := rt.add(wt)
	res.e2e("setup_s", setupS, "s")
	res.e2e("op_ms", quantile(rt.latMs, 0.5), "ms")
	res.e2e("degradation", after/before, "ratio")
	res.e2e("cpu_s", cpuS, "s")
	res.e2e("peak_rss_mb", peakRSSMB(), "MB")
	res.info["fail_share"] = all.failShare()
	res.info["est_p99_ms"] = quantile(rt.latMs, 0.99)
	res.info["exec_p50_ms"] = quantile(wt.latMs, 0.5)
	res.info["exec_p90_ms"] = quantile(wt.latMs, 0.9)
	res.info["reads"] = phaseInfo(rt)
	res.info["writes"] = phaseInfo(wt)
	res.info["steal"] = steal
	res.props = workloadProps(o, repeatShare(keys), rwBatch, len(due), len(writes))

	if o.rec != nil {
		lay := analyzeServe(o.rec.window(from, to), o.rec.frameList(), f.meta)
		lay.set(res, rt, batches, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return res, nil
}

// writer is the closed-loop feedback stream: batch j is due at
// j·writeEvery and is sent when the previous one was acknowledged, so a
// slow retrain delays every later batch and shows in its latency. It
// stops at the first failure (the remaining batches count as never
// sent) and returns how many batches were acknowledged, in order.
func (f *fleet) writer(ctx context.Context, o opts, batches [][]workload.Labeled) ([]sample, int) {
	samples := make([]sample, len(batches))
	start := time.Now()
	acked := 0
	for j := range batches {
		samples[j] = sample{due: time.Duration(j) * writeEvery, out: unsent}
	}
	for j, b := range batches {
		s := &samples[j]
		if wait := s.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		req := reqSeq.Add(1)
		// No dispatcher stands between schedule and sender here: any
		// lateness is waiting for the previous acknowledgement, which
		// the send − due lag reports.
		s.released = s.due
		s.sent = time.Since(start)
		var spanStart int64
		if o.rec != nil {
			spanStart = o.rec.now()
		}
		wctx, cancel := context.WithTimeout(ctx, execTimeout)
		err := f.target(req).ExecuteWorkload(wctx, workload.Queries(b), experiments.Cards(b))
		cancel()
		if o.rec != nil {
			o.rec.add(0, "remote.call", req, spanStart, o.rec.now())
		}
		s.done = time.Since(start)
		s.out = classify(err)
		if err != nil {
			break
		}
		acked++
	}
	return samples, acked
}

// estimateAll asks for every query at once through a coalescing target:
// the concurrent calls ride one wire request.
func estimateAll(ctx context.Context, t ce.Target, qs []*query.Query) error {
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			_, errs[i] = t.EstimateContext(ctx, q)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// behindMs flags a phase whose dispatcher itself released arrivals this
// late at p99: the driver, not the system, fell behind its schedule.
const behindMs = 5

func phaseInfo(t tally) map[string]any {
	genLag := quantile(t.genLagMs, 0.99)
	return map[string]any{
		"due": t.due, "ok": t.ok, "shed": t.shed, "timeouts": t.timeouts,
		"errors": t.failed, "unsent": t.unsent,
		"lag_ms_p99": round(quantile(t.lagMs, 0.99), 4), "gen_lag_ms_p99": round(genLag, 4),
		"driver_behind": genLag > behindMs,
	}
}
