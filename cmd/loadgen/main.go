// Command loadgen fires a planned request stream against a running
// paced estimator service and reports latency percentiles and shed
// rates as JSON — the end-to-end evidence that the server sheds load
// (fast 429s, bounded p99) instead of collapsing into timeouts.
//
// Every run fires an internal/workloadgen schedule. Without -spec or
// -replay, loadgen plans the built-in "uniform" spec at -qps over
// -duration: one client with Poisson arrivals, fired under the -client
// identity. The report counts every planned arrival as offered, so its
// target_qps is the rate that was actually offered; arrivals the host
// cannot keep up with fire late, and arrivals over the in-flight cap are
// booked as client_dropped.
//
// -spec plans a realistic stream instead — a skew-rated client
// population firing bursty arrivals, each request under its own
// X-Pace-Client identity, with query shapes fitted from the dataset's
// historical workload — and the report's per-SLO-class and per-client
// splits show who got served. -record writes the planned stream as a
// JSONL trace; -replay fires a recorded trace bit-exactly; -calibrate
// gates the run's ledger against a previously recorded report (exit 1
// when the deltas exceed tolerance).
//
// Each request is one single-query estimate call (client-side coalescing
// off) so every latency sample is one wire round trip.
//
// Against a multi-tenant host, -target routes the load at named tenants:
// one id fires at that tenant alone; a comma-separated list runs one
// concurrent lane per tenant, each firing the whole plan, and the report
// becomes a per-tenant ledger keyed by tenant id.
//
// Examples:
//
//	paced -addr 127.0.0.1:8645 -rate 200 &
//	loadgen -url http://127.0.0.1:8645 -qps 400 -duration 10s
//	loadgen -url http://127.0.0.1:8645 -target a,b -qps 500
//	loadgen -url http://127.0.0.1:8645 -spec bursty -duration 10s -record t.jsonl -out rec.json
//	loadgen -url http://127.0.0.1:8645 -replay t.jsonl -calibrate rec.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pace/internal/cli"
	"pace/internal/experiments"
	"pace/internal/loadgen"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/workload"
	"pace/internal/workloadgen"
)

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8645", "paced service base URL")
		target      = flag.String("target", "", "tenant id(s) to load, comma-separated (default: the \"default\" tenant)")
		datasetName = flag.String("dataset", "dmv", "dataset the service hosts (workload source)")
		scale       = flag.Float64("scale", 0, "dataset scale factor (0 = profile default)")
		seed        = cli.Seed()
		nQueries    = flag.Int("queries", 200, "distinct queries in the replayed pool")
		qps         = flag.Float64("qps", 1000, "mean offered rate of the planned uniform stream (per lane; ignored with -spec/-replay)")
		duration    = flag.Duration("duration", 10*time.Second, "planning horizon (ignored with -replay)")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		clientID    = flag.String("client", "", "X-Pace-Client identity of a run without -spec/-replay (default host/pid); with -spec/-replay each planned client fires under its own id")
		codecName   = flag.String("codec", "binary", "data-path wire codec: binary or json (415 from an older server downgrades the lane to json)")
		authToken   = cli.AuthToken()
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
		specName    = flag.String("spec", "", "workload spec: a built-in profile (uniform, bursty) or a JSON spec file")
		record      = flag.String("record", "", "record the fired stream as a JSONL trace here")
		replayPath  = flag.String("replay", "", "replay a recorded trace instead of planning (mutually exclusive with -spec)")
		calPath     = flag.String("calibrate", "", "recorded report JSON to gate this run against (exit 1 on calibration failure)")
		workers     = flag.Int("workers", 0, "schedule-generation fan-out (any value plans the identical stream)")
		obsFlags    = cli.Obs()
	)
	flag.Parse()
	_, obsShutdown, err := obsFlags.Setup()
	if err != nil {
		fatal(err)
	}
	if *specName != "" && *replayPath != "" {
		fatal(fmt.Errorf("-spec and -replay are mutually exclusive"))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	cfg := experiments.Config{Seed: *seed, Scale: *scale}.WithDefaults()
	w, err := experiments.NewWorld(*datasetName, cfg)
	if err != nil {
		fatal(err)
	}
	pool := workload.Queries(w.WGen.Random(*nQueries))

	// Load the recorded stream, or plan one: the -spec workload, or the
	// uniform built-in at -qps.
	var sched *loadgen.Schedule
	if *replayPath != "" {
		sched, err = workloadgen.ReadTrace(*replayPath, w.DS.Meta)
	} else {
		sched, err = planStream(*specName, *qps, pool, workload.Queries(w.History), *duration, *workers)
	}
	if err != nil {
		fatal(err)
	}
	if *record != "" {
		if err := workloadgen.WriteTrace(*record, sched, w.DS.Meta); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: recorded %d arrivals / %d clients to %s\n",
			len(sched.Arrivals), len(sched.Clients), *record)
	}

	lcfg := loadgen.Config{Timeout: *timeout}
	var tenants []string
	for _, id := range strings.Split(*target, ",") {
		if id = strings.TrimSpace(id); id != "" {
			tenants = append(tenants, id)
		}
	}

	// One shared client; each lane gets its own routed target view so
	// per-tenant wire counters stay separate while connections pool.
	rc, err := remote.NewClient(*url, remote.Options{
		CoalesceWindow: 0, // one request per estimate: honest per-call latency
		RequestTimeout: *timeout,
		ClientID:       *clientID,
		AuthToken:      *authToken,
		Codec:          *codecName,
	})
	if err != nil {
		fatal(err)
	}
	defer rc.Close()

	// A planned population fires under its own identities; a rate-only
	// run fires under -client.
	lane := func(id, name string) loadgen.Lane {
		l := loadgen.Lane{Target: name, Schedule: sched, Config: lcfg}
		if *specName != "" || *replayPath != "" {
			l.Fire, l.Stats = loadgen.ClientFire(rc, id)
		} else {
			rt := rc.Target(id)
			l.Fire, l.Stats = loadgen.CallerFire(rt), rt.Stats
		}
		return l
	}
	var lanes []loadgen.Lane
	if len(tenants) == 0 {
		lanes = []loadgen.Lane{lane("", "default")}
	} else {
		for _, id := range tenants {
			lanes = append(lanes, lane(id, id))
		}
	}

	fmt.Fprintf(os.Stderr, "loadgen: firing %q (mean %.0f qps): %d arrivals / %d clients x %d lane(s) to %s\n",
		sched.Spec.Name, sched.Spec.Clients.MeanQPS, len(sched.Arrivals), len(sched.Clients), len(lanes), *url)
	ledger := loadgen.RunLanes(ctx, lanes)

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	// Single-lane runs keep the flat Report shape older tooling parses;
	// multi-lane runs emit the per-tenant ledger.
	var payload any = ledger
	if len(lanes) == 1 {
		payload = ledger[lanes[0].Target]
	}
	if err := enc.Encode(payload); err != nil {
		fatal(err)
	}
	for _, lane := range lanes {
		rep := ledger[lane.Target]
		fmt.Fprintf(os.Stderr,
			"loadgen: [%s] %d offered → %d ok, %d shed(429), %d unavailable, %d errors, %d dropped; p50 %.2fms p99 %.2fms (shed p99 %.2fms); %s codec, %.1f KiB out / %.1f KiB in\n",
			lane.Target, rep.Offered, rep.OK, rep.Shed, rep.Unavailable, rep.Errors, rep.ClientDropped,
			rep.LatencyMsP50, rep.LatencyMsP99, rep.ShedMsP99,
			rep.Codec, float64(rep.WireBytesOut)/1024, float64(rep.WireBytesIn)/1024)
	}
	if err := obsShutdown(); err != nil {
		fatal(err)
	}

	// Calibration gate: diff this run's aggregate ledger against the
	// recorded report and fail loudly when the replay has drifted.
	if *calPath != "" {
		recorded, err := loadReport(*calPath)
		if err != nil {
			fatal(err)
		}
		cal := loadgen.Calibrate(recorded, ledger.Aggregate(), loadgen.CalTolerance{})
		fmt.Fprintln(os.Stderr, cal)
		if !cal.Pass {
			os.Exit(1)
		}
	}
}

// planStream plans the run's stream over the horizon: the -spec
// workload (a built-in profile name or a JSON file), or without one the
// uniform built-in at qps. Query shapes track the dataset's historical
// workload, so the stream presents the mix the estimator trained under.
func planStream(specArg string, qps float64, pool, history []*query.Query, horizon time.Duration, workers int) (*loadgen.Schedule, error) {
	name := specArg
	if name == "" {
		name = "uniform"
	}
	spec, err := workloadgen.Builtin(name)
	if err != nil {
		if spec, err = workloadgen.LoadSpec(name); err != nil {
			return nil, err
		}
	}
	if specArg == "" {
		spec.Clients.MeanQPS = qps
	}
	return workloadgen.Generate(spec, pool, workloadgen.FitShapes(history), horizon, workers)
}

// loadReport reads a recorded report for calibration: either a flat
// single-lane Report or a multi-lane ledger (aggregated).
func loadReport(path string) (loadgen.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return loadgen.Report{}, err
	}
	var ledger loadgen.Ledger
	if err := json.Unmarshal(raw, &ledger); err == nil && len(ledger) > 0 {
		if agg := ledger.Aggregate(); agg.Offered > 0 {
			return agg, nil
		}
	}
	var rep loadgen.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return loadgen.Report{}, fmt.Errorf("loadgen: %s is not a recorded report: %w", path, err)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
