package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/workloadgen"
)

func testQueries() []*query.Query {
	m := &query.Meta{
		TableNames: []string{"a"},
		AttrNames:  []string{"a0"},
		AttrOffset: []int{0, 1},
	}
	q := query.New(m)
	q.Bounds[0] = [2]float64{0.2, 0.8}
	return []*query.Query{q}
}

// uniformSchedule plans the "uniform" built-in — one Poisson client —
// at qps over the horizon: the stream of every rate-only run.
func uniformSchedule(t *testing.T, qps float64, horizon time.Duration) *Schedule {
	t.Helper()
	spec, err := workloadgen.Builtin("uniform")
	if err != nil {
		t.Fatal(err)
	}
	spec.Clients.MeanQPS = qps
	sched, err := workloadgen.Generate(spec, testQueries(), nil, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestRunAccountsEveryOutcome fires a uniform schedule at a fake target
// that answers with a fixed outcome mix and checks the report's ledger:
// every sent request lands in exactly one bucket, and each classified
// error reaches its own tally.
func TestRunAccountsEveryOutcome(t *testing.T) {
	var n atomic.Int64
	fire := func(ctx context.Context, _ string, q *query.Query) (float64, error) {
		switch n.Add(1) % 6 {
		case 0:
			return 0, fmt.Errorf("shed: %w", remote.ErrOverloaded)
		case 1:
			return 0, fmt.Errorf("bad: %w", ce.ErrInvalidQuery)
		case 2:
			return 0, errors.New("connection reset")
		case 3:
			return 0, fmt.Errorf("backend dead: %w", remote.ErrUnavailable)
		default:
			return 42, nil
		}
	}
	rep := RunSchedule(context.Background(), fire, uniformSchedule(t, 2000, 200*time.Millisecond),
		Config{Timeout: time.Second})

	if rep.Sent == 0 {
		t.Fatal("no requests sent")
	}
	completed := rep.OK + rep.Shed + rep.Invalid + rep.Unavailable + rep.Errors
	if completed != rep.Sent {
		t.Errorf("ledger leak: sent %d != ok %d + shed %d + invalid %d + unavailable %d + errors %d",
			rep.Sent, rep.OK, rep.Shed, rep.Invalid, rep.Unavailable, rep.Errors)
	}
	if rep.Offered != rep.Sent+rep.ClientDropped {
		t.Errorf("arrival leak: offered %d != sent %d + dropped %d",
			rep.Offered, rep.Sent, rep.ClientDropped)
	}
	// The outcome mix must show up in every bucket.
	for name, got := range map[string]int64{
		"ok": rep.OK, "shed": rep.Shed, "invalid": rep.Invalid,
		"unavailable": rep.Unavailable, "errors": rep.Errors,
	} {
		if got == 0 {
			t.Errorf("bucket %s empty despite mixed outcomes (report %+v)", name, rep)
		}
	}
	if rep.TargetQPS != 2000 {
		t.Errorf("TargetQPS = %v, want 2000", rep.TargetQPS)
	}
	if rep.AchievedQPS <= 0 || rep.DurationSec <= 0 {
		t.Errorf("achieved qps %v over %vs; want > 0", rep.AchievedQPS, rep.DurationSec)
	}
	if rep.LatencyMsP50 < 0 || rep.LatencyMsP99 < rep.LatencyMsP50 || rep.LatencyMsMax < rep.LatencyMsP99 {
		t.Errorf("latency percentiles not monotone: p50 %v p99 %v max %v",
			rep.LatencyMsP50, rep.LatencyMsP99, rep.LatencyMsMax)
	}
}

// TestRunCapsInFlight: a target that never answers within the run must
// trip the in-flight cap, and the capped sends count as client drops —
// the offered schedule never blocks on a slow server.
func TestRunCapsInFlight(t *testing.T) {
	fire := func(ctx context.Context, _ string, q *query.Query) (float64, error) {
		<-ctx.Done() // hold the slot until the per-request timeout
		return 0, ctx.Err()
	}
	rep := RunSchedule(context.Background(), fire, uniformSchedule(t, 2000, 150*time.Millisecond), Config{
		Timeout:     500 * time.Millisecond,
		MaxInFlight: 8,
	})
	if rep.ClientDropped == 0 {
		t.Errorf("cap of 8 never tripped at 2000 QPS: %+v", rep)
	}
	if rep.OK != 0 {
		t.Errorf("%d requests served by a target that never answers", rep.OK)
	}
	if got := rep.OK + rep.Shed + rep.Invalid + rep.Unavailable + rep.Errors; got != rep.Sent {
		t.Errorf("ledger leak: sent %d, accounted %d", rep.Sent, got)
	}
	if rep.Offered != rep.Sent+rep.ClientDropped {
		t.Errorf("arrival double-booked: offered %d != sent %d + dropped %d",
			rep.Offered, rep.Sent, rep.ClientDropped)
	}
}

// TestRunHonorsCancel: a long rate-only run cancelled early returns
// promptly, with what it fired before the cancel on the ledger.
func TestRunHonorsCancel(t *testing.T) {
	sched := uniformSchedule(t, 500, 30*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	fire := func(ctx context.Context, _ string, q *query.Query) (float64, error) { return 1, nil }
	start := time.Now()
	rep := RunSchedule(ctx, fire, sched, Config{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run survived cancel for %v", elapsed)
	}
	if rep.Sent == 0 {
		t.Error("nothing sent before cancel")
	}
}

// TestRunClampsExtremeQPS: a rate too high to plan is refused up front
// rather than silently clamped, and a plannable rate far beyond what
// the host can fire still offers every planned arrival — late arrivals
// fire at once instead of being lost.
func TestRunClampsExtremeQPS(t *testing.T) {
	spec, err := workloadgen.Builtin("uniform")
	if err != nil {
		t.Fatal(err)
	}
	spec.Clients.MeanQPS = 5e9
	if _, err := workloadgen.Generate(spec, testQueries(), nil, 20*time.Millisecond, 0); err == nil {
		t.Error("5e9 qps over 20ms planned, want the arrival-cap refusal")
	}

	sched := uniformSchedule(t, 1e7, time.Millisecond)
	fire := func(ctx context.Context, _ string, q *query.Query) (float64, error) { return 1, nil }
	rep := RunSchedule(context.Background(), fire, sched, Config{})
	if rep.Offered == 0 || rep.Offered != int64(len(sched.Arrivals)) {
		t.Errorf("offered %d of %d planned arrivals", rep.Offered, len(sched.Arrivals))
	}
	if rep.Offered != rep.Sent+rep.ClientDropped {
		t.Errorf("arrival double-booked: offered %d != sent %d + dropped %d",
			rep.Offered, rep.Sent, rep.ClientDropped)
	}
}

// TestAggregateEmptyLedger: folding zero lanes must yield an all-zero
// report — in particular no NaN rates from 0/0 divisions.
func TestAggregateEmptyLedger(t *testing.T) {
	agg := Ledger{}.Aggregate()
	if agg.Offered != 0 || agg.Sent != 0 || agg.OK != 0 || agg.Codec != "" ||
		agg.Classes != nil || agg.Clients != nil {
		t.Errorf("empty ledger aggregated to %+v, want zero report", agg)
	}
	for name, v := range map[string]float64{
		"target_qps": agg.TargetQPS, "achieved_qps": agg.AchievedQPS,
		"p50": agg.LatencyMsP50, "p99": agg.LatencyMsP99,
	} {
		if v != 0 || v != v { // v != v catches NaN
			t.Errorf("%s = %v in empty aggregate, want 0", name, v)
		}
	}
}

// TestAggregateCodecDisagreement: lanes served by different codecs must
// clear the aggregate codec column — a fleet number can only claim a
// codec when every lane used it.
func TestAggregateCodecDisagreement(t *testing.T) {
	l := Ledger{
		"a": Report{Codec: "binary", OK: 1},
		"b": Report{Codec: "json", OK: 2},
	}
	if agg := l.Aggregate(); agg.Codec != "" {
		t.Errorf("mixed-codec aggregate claims codec %q, want empty", agg.Codec)
	}
	same := Ledger{
		"a": Report{Codec: "binary", OK: 1},
		"b": Report{Codec: "binary", OK: 2},
	}
	if agg := same.Aggregate(); agg.Codec != "binary" {
		t.Errorf("unanimous aggregate codec = %q, want binary", agg.Codec)
	}
}

// TestAggregateMergesClassSplits: per-SLO-class splits sum counts and
// take the worst-lane percentile, and the shed fraction is recomputed
// over the summed counts.
func TestAggregateMergesClassSplits(t *testing.T) {
	l := Ledger{
		"a": Report{Classes: map[string]ClassReport{
			"gold": {Offered: 100, Sent: 100, OK: 90, Shed: 10, LatencyMsP99: 2.0, ShedFraction: 0.1},
		}},
		"b": Report{Classes: map[string]ClassReport{
			"gold":   {Offered: 100, Sent: 100, OK: 60, Shed: 40, LatencyMsP99: 5.0, ShedFraction: 0.4},
			"bronze": {Offered: 50, Sent: 50, OK: 50, LatencyMsP99: 1.0},
		}},
	}
	agg := l.Aggregate()
	gold := agg.Classes["gold"]
	if gold.Offered != 200 || gold.Shed != 50 {
		t.Errorf("gold counts offered=%d shed=%d, want 200/50", gold.Offered, gold.Shed)
	}
	if gold.LatencyMsP99 != 5.0 {
		t.Errorf("gold p99 = %v, want worst lane 5.0", gold.LatencyMsP99)
	}
	if gold.ShedFraction != 0.25 {
		t.Errorf("gold shed fraction = %v, want 0.25", gold.ShedFraction)
	}
	if _, ok := agg.Classes["bronze"]; !ok {
		t.Error("bronze class lost in aggregation")
	}
}
