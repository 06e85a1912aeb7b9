// Command perfbench is the repository's benchmark. Each workload builds
// its system in process from the public constructors, drives it for a
// fixed time from a seeded input plan, checks the outputs bit for bit
// against in-process twins, and prints its metrics:
//
//	campaign     one full PACE attack (core.Campaign.Run) on imdb/MSCN
//	serve_point  single-query estimates through remote → router → paced
//	serve_rw     64-query estimate batches beside a retraining writer
//
// With --trace 0 the last line of standard output is a JSON object
// carrying the end-to-end metrics. With --trace 1 the run measures the
// workload twice, untraced then traced, prints the tracing overhead per
// end-to-end metric, writes the spans under .bench_build/spans/ and
// reports the per-layer metrics instead. A failed correctness check sets
// "correct": false and the exit code to 1.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload serve_point --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// opts is one measured pass over a workload.
type opts struct {
	seed     int64
	seconds  float64
	setups   int           // set-ups per pass, at least; setup_s is their median
	setupFor time.Duration // and set up for at least this long
	conns    int           // connection cap and read workers
	workers  int           // campaign worker pool
	rec      *recorder
}

// phase is a share of the pass's measuring time.
func (o opts) phase(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one pass measured and checked.
type runResult struct {
	metrics, layers   map[string]metric
	attempted, failed int
	failures          []string // correctness checks that failed
	props, info       map[string]any
}

func newRunResult() *runResult {
	return &runResult{metrics: map[string]metric{}, layers: map[string]metric{}, info: map[string]any{}}
}

func (r *runResult) e2e(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) layer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) check(pass bool, msg string) {
	if !pass {
		r.failures = append(r.failures, msg)
	}
}

// count books a phase's due arrivals as attempted operations and its
// unanswered ones as failed.
func (r *runResult) count(t tally) {
	r.attempted += t.due
	r.failed += t.failures()
}

// workloadProps records the traffic properties a later batching or
// cache claim can cite.
func workloadProps(o opts, repeat float64, batch, reads, writes int) map[string]any {
	p := map[string]any{
		"query_repeat_share": round(repeat, 4),
		"mean_batch_queries": batch,
		"reads":              reads,
		"writes":             writes,
		"connections":        o.conns,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
	}
	if writes > 0 {
		p["read_write_ratio"] = round(float64(reads)/float64(writes), 3)
	}
	return p
}

func round(v float64, digits int) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	p := math.Pow(10, float64(digits))
	return math.Round(v*p) / p
}

var workloads = map[string]func(context.Context, opts) (*runResult, error){
	"campaign":    runCampaign,
	"serve_point": runServePoint,
	"serve_rw":    runServeRW,
}

func main() {
	var (
		name    = flag.String("workload", "", "campaign, serve_point or serve_rw")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measuring time per pass")
		trace   = flag.Int("trace", 0, "1 measures untraced and traced passes and reports per-layer metrics")
	)
	flag.Parse()
	run, found := workloads[*name]
	if !found || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign|serve_point|serve_rw --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	o := opts{seed: *seed, seconds: *seconds, setups: 5, setupFor: 3 * time.Second, conns: nproc, workers: nproc}
	ctx := context.Background()

	fmt.Println(jsonLine(map[string]any{"provenance": provenance(*seed, *name, *trace)}))
	var res *runResult
	var err error
	if *trace == 0 {
		res, err = run(ctx, o)
	} else {
		res, err = traced(ctx, *name, run, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.attempted = max(res.attempted, 1)
	res.e2e("ok_share", float64(res.attempted-res.failed)/float64(res.attempted), "ratio")
	fmt.Println(jsonLine(map[string]any{"workload": res.props, "info": res.info}))
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	out, err := reported(res, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(jsonLine(map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	}))
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// endToEnd names the end-to-end metrics every workload reports with
// --trace 0, and their units. Each is defined on every workload:
//
//	setup_s       median set-up time
//	op_ms         median wall time of one operation: an attack (campaign),
//	              an estimate from its due time (serve_point)
//	degradation   mean test Q-error of the target after / before: the
//	              attack (campaign), the run's reads (serve_point, 1)
//	ok_share      (attempted − failed) / attempted
//	cpu_s         process CPU over the measured operations
//	peak_rss_mb   peak resident set
var endToEnd = map[string]string{
	"setup_s": "s", "op_ms": "ms", "degradation": "ratio",
	"ok_share": "ratio", "cpu_s": "s", "peak_rss_mb": "MB",
}

// perLayer names the per-layer metrics every workload reports with
// --trace 1, and their units. A layer a workload never calls reads 0
// there: the campaign's stages on serve_point, the serving path on
// campaign.
var perLayer = map[string]string{
	"surrogate.train_s": "s", "detector.train_s": "s", "core.train_self_s": "s",
	"engine.label_calls": "count", "engine.label_s": "s", "core.invalid_share": "ratio",
	"generator.draw_s": "s", "ce.retrain_s": "s", "ce.estimate_calls": "count",
	"ce.estimate_s": "s", "ce.infer_us_p50": "us", "go.alloc_mb": "MB",
	"go.alloc_kb_per_op": "KB", "driver.lag_ms_p99": "ms",
	"remote.rtt_us_p50": "us", "remote.rtt_us_p99": "us",
	"router.forward_us_p50": "us", "router.self_us_p50": "us",
	"targetserver.handler_us_p50": "us", "targetserver.handler_us_p99": "us",
	"wire.decode_us": "us", "wire.encode_us": "us", "wire.bytes_per_req": "B",
	"tenant.wait_us_p50": "us", "tenant.wait_us_p99": "us",
	"tenant.batch_queries_mean": "queries", "tenant.shed_share": "ratio",
	"serve.unexplained_us_p50": "us",
}

// reported is the result line's metrics: every end-to-end metric, or
// with layers every per-layer metric, a layer the workload did not call
// reading 0. A metric the workload should have measured but did not, or
// one in the wrong unit, is an error.
func reported(res *runResult, layers bool) (map[string]metric, error) {
	want, got := endToEnd, res.metrics
	if layers {
		want, got = perLayer, res.layers
	}
	out := map[string]metric{}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok && !layers:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", name)
		case !ok:
			m = metric{Value: 0, Unit: unit}
		case m.Unit != unit:
			return nil, fmt.Errorf("metric %s measured in %s, not %s", name, m.Unit, unit)
		}
		out[name] = m
	}
	return out, nil
}

// traced measures the workload untraced and then traced, each for half
// the time with one set-up, reports the difference on every end-to-end
// metric as the tracing overhead and dumps the traced pass's spans.
func traced(ctx context.Context, name string, run func(context.Context, opts) (*runResult, error), o opts) (*runResult, error) {
	o.seconds /= 2
	o.setups, o.setupFor = 1, 0
	base, err := run(ctx, o)
	if err != nil {
		return nil, err
	}
	o.rec = newRecorder()
	res, err := run(ctx, o)
	if err != nil {
		return nil, err
	}
	overhead := map[string]float64{}
	for k, m := range res.metrics {
		overhead[k] = m.Value - base.metrics[k].Value
	}
	if d := res.metrics["degradation"]; name == "campaign" &&
		math.Float64bits(d.Value) != math.Float64bits(base.metrics["degradation"].Value) {
		res.check(false, fmt.Sprintf("campaign: traced degradation %v differs from untraced %v", d.Value, base.metrics["degradation"].Value))
	}
	res.failures = append(base.failures, res.failures...)
	res.attempted += base.attempted
	res.failed += base.failed
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, o.seed))
	if err := o.rec.write(path); err != nil {
		return nil, err
	}
	fmt.Println(jsonLine(map[string]any{"tracing_overhead": overhead, "untraced": base.metrics, "traced": res.metrics, "spans": path}))
	return res, nil
}

// provenance says which machine, toolchain and revision a result came
// from.
func provenance(seed int64, name string, trace int) map[string]any {
	return map[string]any{
		"workload": name, "seed": seed, "trace": trace,
		"nproc": runtime.NumCPU(), "cpu_model": cpuModel(),
		"go_version": runtime.Version(), "git_rev": gitRev(),
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the checkout's revision when the checkout is a git
// repository, else "unknown".
func gitRev() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// jsonLine renders v as one line of JSON with sorted keys.
func jsonLine(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf(`{"error": %q}`, err.Error())
	}
	return string(raw)
}
