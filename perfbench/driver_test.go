package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pace/internal/query"
	"pace/internal/remote"
)

// evenDue is n arrivals every step, starting at 0.
func evenDue(n int, step time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * step
	}
	return due
}

// A target that stalls once: the arrivals queued behind the stall are
// counted, sent late, and their latency from due time includes the
// stall.
func TestStalledTargetDelaysLaterArrivals(t *testing.T) {
	const stall = 150 * time.Millisecond
	due := evenDue(40, 5*time.Millisecond)
	samples := fire(context.Background(), due, 1, time.Second, time.Second, func(ctx context.Context, i int) error {
		if i == 4 {
			time.Sleep(stall)
		}
		return nil
	})
	tl := summarize(samples)
	if tl.due != 40 || tl.ok != 40 {
		t.Fatalf("due=%d ok=%d, want every arrival counted and answered", tl.due, tl.ok)
	}
	late := 0
	for _, s := range samples[5:] {
		if s.sent-s.due > 50*time.Millisecond {
			late++
		}
	}
	if late < 10 {
		t.Errorf("%d arrivals sent >50ms late behind a %v stall, want >= 10", late, stall)
	}
	// Arrival 5 was due 5ms after the stalled one started: its latency
	// from due time must carry nearly the whole stall.
	if lat := samples[5].done - samples[5].due; lat < stall-10*time.Millisecond {
		t.Errorf("arrival behind the stall: latency %v from due, want >= %v", lat, stall-10*time.Millisecond)
	}
	if lag := quantile(tl.lagMs, 0.99); lag < 100 {
		t.Errorf("lag p99 = %.1fms, want the stall to show", lag)
	}
}

// Arrivals still queued when the phase closes are due but never sent,
// and count as failures.
func TestStallPastGraceLeavesArrivalsUnsent(t *testing.T) {
	due := evenDue(20, time.Millisecond)
	samples := fire(context.Background(), due, 1, time.Second, 30*time.Millisecond, func(ctx context.Context, i int) error {
		if i == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		return nil
	})
	tl := summarize(samples)
	if tl.due != 20 || tl.unsent == 0 || tl.ok+tl.unsent != 20 {
		t.Fatalf("due=%d ok=%d unsent=%d, want the queue behind the stall unsent", tl.due, tl.ok, tl.unsent)
	}
	if got, want := tl.failShare(), float64(tl.unsent)/20; got != want {
		t.Errorf("fail_share = %v, want %v", got, want)
	}
}

// Shed and timed-out requests count in fail_share and, as infinitely
// late answers, fail the rung's latency limit.
func TestShedAndTimeoutsFailTheRung(t *testing.T) {
	due := evenDue(200, time.Millisecond)
	samples := fire(context.Background(), due, 2, 20*time.Millisecond, time.Second, func(ctx context.Context, i int) error {
		switch i % 50 {
		case 1:
			return &remote.OverloadError{Status: 429}
		case 2:
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	tl := summarize(samples)
	if tl.shed != 4 || tl.timeouts != 4 {
		t.Fatalf("shed=%d timeouts=%d, want 4 and 4", tl.shed, tl.timeouts)
	}
	if got := tl.failShare(); got != 8.0/200 {
		t.Errorf("fail_share = %v, want 0.04", got)
	}
	if p99 := tl.latencyQ(0.99); !math.IsInf(p99, 1) {
		t.Errorf("p99 = %v with 4%% failed, want +Inf", p99)
	}
	lenient := sloLimits{p99Ms: 1e9, failShare: 1, lagP99Ms: 1e9}
	if pass, why := lenient.passes(tl); pass || why != "p99" {
		t.Errorf("lenient fail_share limit: pass=%v why=%q, want the latency limit to fail", pass, why)
	}
	if pass, why := pointLimits.passes(tl); pass || why != "fail_share" {
		t.Errorf("pass=%v why=%q, want fail_share to fail the rung", pass, why)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	pool := make([]*query.Query, 50)
	for i := range pool {
		pool[i] = &query.Query{Tables: []bool{i%2 == 0, i%3 == 0}}
	}
	d1, q1, err := poissonDue(7, 300, 2*time.Second, pool)
	if err != nil {
		t.Fatal(err)
	}
	d2, q2, err := poissonDue(7, 300, 2*time.Second, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("same seed planned different schedules")
	}
	if n := len(d1); n < 450 || n > 750 {
		t.Errorf("%d arrivals at 300 qps over 2s", n)
	}
	d3, _, err := poissonDue(8, 300, 2*time.Second, pool)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(d1, d3) {
		t.Error("different seeds planned the same schedule")
	}
}

// The serve breakdown reports what no layer explains: the RTT minus the
// router's self time minus the backend handler.
func TestServeRemainderIsRTTMinusLayerSelfTimes(t *testing.T) {
	us := int64(time.Microsecond)
	spans := []span{
		{Req: 1, Name: "remote.call", Start: 0, End: 1000 * us},
		{Req: 1, Name: "router.handler", Start: 100 * us, End: 900 * us},
		{Req: 1, Name: "router.forward", Start: 150 * us, End: 850 * us},
		{Req: 1, Name: "targetserver.handler", Start: 200 * us, End: 700 * us},
		{Req: 1, Name: "ce.estimate", Start: 600 * us, End: 650 * us},
		{Req: 1, Name: "ce.estimate", Start: 650 * us, End: 700 * us},
	}
	l := analyzeServe(spans, nil, nil)
	check := func(name string, got []float64, want float64) {
		t.Helper()
		if len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	check("rtt", l.rttUs, 1000)
	check("router self", l.routerSelfUs, 100)
	check("handler", l.handlerUs, 500)
	check("tenant wait", l.waitUs, 400)
	check("unexplained", l.unexplainedUs, 1000-100-500)
	if len(l.inferUs) != 2 {
		t.Errorf("%d model calls, want 2", len(l.inferUs))
	}
}

// The span dump links each span to its parent: served spans by layer
// within their request, campaign spans to the innermost enclosing stage.
func TestSpanDumpLinksParents(t *testing.T) {
	r := newRecorder()
	camp := r.add(0, "campaign", 0, 0, 100)
	train := r.add(0, "core.train", 0, 10, 50)
	label := r.add(0, "engine.label", 0, 20, 30)
	call := r.add(0, "remote.call", 7, 0, 10)
	handler := r.add(0, "router.handler", 7, 1, 9)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parents := map[int64]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		parents[s.ID] = s.Parent
	}
	want := map[int64]int64{camp: 0, train: camp, label: train, call: 0, handler: call}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 200, End: 300}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 30+10", got)
	}
}

// The metric tables the result line is built from are BENCHMARK.json's
// metrics, with the same units.
func TestMetricTablesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		table  map[string]string
	}{{"end_to_end", manifest.EndToEnd, endToEnd}, {"per_layer", manifest.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, m := range c.listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.table) {
			t.Errorf("%s in BENCHMARK.json = %v, the benchmark reports %v", c.what, got, c.table)
		}
	}
}

// The result line carries every end-to-end metric, or every per-layer
// metric with the layers a workload did not call at 0; a missing
// end-to-end metric or a wrong unit is an error.
func TestReportedHoldsEveryMetric(t *testing.T) {
	res := newRunResult()
	for name, unit := range endToEnd {
		res.e2e(name, 1, unit)
	}
	res.layer("surrogate.train_s", 2, "s")
	out, err := reported(res, false)
	if err != nil || len(out) != len(endToEnd) {
		t.Fatalf("end-to-end: %d metrics, err %v", len(out), err)
	}
	out, err = reported(res, true)
	if err != nil || len(out) != len(perLayer) {
		t.Fatalf("per-layer: %d metrics, err %v", len(out), err)
	}
	if out["surrogate.train_s"].Value != 2 || out["remote.rtt_us_p50"] != (metric{0, "us"}) {
		t.Errorf("per-layer values: %v", out)
	}
	delete(res.metrics, "op_ms")
	if _, err := reported(res, false); err == nil {
		t.Error("a missing end-to-end metric was not an error")
	}
	res.e2e("op_ms", 1, "s")
	if _, err := reported(res, false); err == nil {
		t.Error("a metric in the wrong unit was not an error")
	}
}

// Steal is judged against the CPU time the machine wanted, not its idle
// time: 100 of 400 wanted ticks stolen takes a quarter out of a
// CPU-bound interval. Spread over 2 CPUs and 2 s, the same 100 ticks are
// a quarter of each CPU's time, which a mostly waiting request loses.
func TestUnstolenTakesOutTheStealShare(t *testing.T) {
	a := hostCPU{busy: 1000, steal: 500, cpus: 2}
	b := hostCPU{busy: 1300, steal: 600, cpus: 2}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("stealShare = %v, want 100/400", got)
	}
	if got := unstolen(2*time.Second, a, b); got != 1500*time.Millisecond {
		t.Errorf("unstolen = %v, want 1.5s", got)
	}
	if got := unstolen(time.Second, a, a); got != time.Second {
		t.Errorf("without steal, unstolen = %v, want 1s", got)
	}
	if got := stolenShare(2*time.Second, a, b); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("stolen share per CPU = %v, want 0.25", got)
	}
	if got := stolenShare(10*time.Millisecond, a, b); got != maxSteal {
		t.Errorf("overshooting tick count: stolen share = %v, want the cap", got)
	}
}
