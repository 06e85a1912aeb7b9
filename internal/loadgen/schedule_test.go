package loadgen

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/workloadgen"
)

func testSchedule(t *testing.T) *Schedule {
	t.Helper()
	spec := workloadgen.Spec{
		Seed:    11,
		Clients: workloadgen.ClientSpec{N: 3, MeanQPS: 800, RateDist: "zipf"},
		Arrival: workloadgen.ArrivalSpec{Process: "gamma", Shape: 0.5},
		Classes: []workloadgen.ClassSpec{
			{Name: "gold", Weight: 0.6},
			{Name: "bronze", Weight: 0.4},
		},
	}
	s, err := workloadgen.Generate(spec, testQueries(), nil, 300*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Arrivals) == 0 {
		t.Fatal("planned schedule is empty")
	}
	return s
}

// TestRunScheduleSplitsLedger: replaying a planned schedule fires every
// arrival exactly once, under the planned client identity, and the
// report's per-class and per-client splits each account for the whole
// stream.
func TestRunScheduleSplitsLedger(t *testing.T) {
	sched := testSchedule(t)
	perClient := map[string]int64{}
	fire := func(ctx context.Context, client string, q *query.Query) (float64, error) {
		if client == "" {
			t.Error("fired without a client identity")
		}
		// Shed one client entirely so the class splits diverge.
		if client == "c001" {
			return 0, fmt.Errorf("busy: %w", remote.ErrOverloaded)
		}
		return 42, nil
	}
	rep := RunSchedule(context.Background(), fire, sched, Config{Timeout: time.Second})

	if rep.Offered != int64(len(sched.Arrivals)) {
		t.Errorf("offered %d, planned %d arrivals", rep.Offered, len(sched.Arrivals))
	}
	if rep.Offered != rep.Sent+rep.ClientDropped {
		t.Errorf("arrival leak: offered %d != sent %d + dropped %d",
			rep.Offered, rep.Sent, rep.ClientDropped)
	}
	if got := rep.OK + rep.Shed + rep.Invalid + rep.Unavailable + rep.Errors; got != rep.Sent {
		t.Errorf("ledger leak: sent %d, accounted %d", rep.Sent, got)
	}

	// Class splits partition the stream.
	var classOffered, classSent int64
	for name, c := range rep.Classes {
		classOffered += c.Offered
		classSent += c.Sent
		if c.Offered != c.Sent+c.ClientDropped {
			t.Errorf("class %s: offered %d != sent %d + dropped %d",
				name, c.Offered, c.Sent, c.ClientDropped)
		}
	}
	if classOffered != rep.Offered || classSent != rep.Sent {
		t.Errorf("class splits cover %d/%d offered, want %d/%d",
			classOffered, classSent, rep.Offered, rep.Sent)
	}

	// Client splits partition the stream and carry their planned class.
	var clientOffered int64
	for id, c := range rep.Clients {
		clientOffered += c.Offered
		perClient[id] = c.Offered
		var want string
		for _, pc := range sched.Clients {
			if pc.ID == id {
				want = pc.Class
			}
		}
		if c.Class != want {
			t.Errorf("client %s reported class %q, planned %q", id, c.Class, want)
		}
	}
	if clientOffered != rep.Offered {
		t.Errorf("client splits cover %d offered, want %d", clientOffered, rep.Offered)
	}

	// The shed client's split shows the shedding; a served client's not.
	if c := rep.Clients["c001"]; c.Shed != c.Sent || c.OK != 0 {
		t.Errorf("c001 fully shed upstream but reported %+v", c)
	}
	if c := rep.Clients["c000"]; c.OK != c.Sent || c.Shed != 0 {
		t.Errorf("c000 fully served but reported %+v", c)
	}

	// Replay counts must match the plan exactly, per client.
	planned := map[string]int64{}
	for _, a := range sched.Arrivals {
		planned[sched.Clients[a.Client].ID]++
	}
	for id, n := range planned {
		if perClient[id] != n {
			t.Errorf("client %s planned %d arrivals, replay offered %d", id, n, perClient[id])
		}
	}
}

// TestRunScheduleHonorsCancel: cancelling mid-replay stops the stream.
func TestRunScheduleHonorsCancel(t *testing.T) {
	sched := uniformSchedule(t, 100, 30*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	fire := func(ctx context.Context, client string, q *query.Query) (float64, error) { return 1, nil }
	start := time.Now()
	rep := RunSchedule(ctx, fire, sched, Config{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("replay survived cancel for %v", elapsed)
	}
	if rep.Offered >= int64(len(sched.Arrivals)) {
		t.Error("cancel did not curtail the planned stream")
	}
}

// TestCalibrate: a replay matching the recording passes; one with a
// materially different shed mix or offered rate fails the named check.
func TestCalibrate(t *testing.T) {
	recorded := Report{
		Offered: 1000, Sent: 950, OK: 900, Shed: 50, ClientDropped: 50,
		DurationSec: 10, LatencyMsP50: 2, LatencyMsP99: 8,
		Classes: map[string]ClassReport{
			"gold": {Offered: 700, Sent: 680, OK: 660, Shed: 20, ShedFraction: 0.03, LatencyMsP99: 8},
		},
	}
	if cal := Calibrate(recorded, recorded, CalTolerance{}); !cal.Pass {
		t.Fatalf("self-calibration failed:\n%s", cal)
	}

	// Double the shed fraction: the shed check must fail, and only it.
	bad := recorded
	bad.OK, bad.Shed = 650, 300
	cal := Calibrate(recorded, bad, CalTolerance{})
	if cal.Pass {
		t.Fatal("tripled shed fraction passed calibration")
	}
	failed := map[string]bool{}
	for _, ch := range cal.Checks {
		if !ch.Pass {
			failed[ch.Name] = true
		}
	}
	if !failed["shed_429_fraction"] {
		t.Errorf("shed_429_fraction not among failures %v", failed)
	}

	// Half the offered rate: the rate gate fails.
	slow := recorded
	slow.DurationSec = 20
	cal = Calibrate(recorded, slow, CalTolerance{})
	if cal.Pass {
		t.Fatal("halved offered rate passed calibration")
	}

	// Per-class p99 regression beyond the latency tolerance fails.
	lag := recorded
	lag.Classes = map[string]ClassReport{
		"gold": {Offered: 700, Sent: 680, OK: 660, Shed: 20, ShedFraction: 0.03, LatencyMsP99: 40},
	}
	cal = Calibrate(recorded, lag, CalTolerance{})
	if cal.Pass {
		t.Fatal("5x class p99 passed calibration")
	}
}
