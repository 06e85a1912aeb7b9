package bench

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pace/internal/experiments"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
)

func attackRecord(cell string, thr, deg float64) Record {
	return Record{
		Suite: "s", Cell: cell, Kind: "attack",
		WallSec: 1, Throughput: thr, Degradation: deg,
	}
}

func TestRecordValidate(t *testing.T) {
	ok := attackRecord("a", 100, 1.5)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := map[string]Record{
		"missing suite":   {Cell: "a", Kind: "load"},
		"missing cell":    {Suite: "s", Kind: "load"},
		"unknown kind":    {Suite: "s", Cell: "a", Kind: "weird"},
		"negative wall":   {Suite: "s", Cell: "a", Kind: "load", WallSec: -1},
		"attack w/o deg":  {Suite: "s", Cell: "a", Kind: "attack", WallSec: 1},
		"negative thrput": {Suite: "s", Cell: "a", Kind: "load", Throughput: -3},
	}
	for name, rec := range cases {
		if err := rec.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestTrajectoryAppendAndDiff(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")

	// A missing file loads as an empty trajectory.
	tr, err := LoadTrajectory(path)
	if err != nil {
		t.Fatalf("load missing: %v", err)
	}
	if tr.Schema != SchemaVersion || len(tr.Records) != 0 {
		t.Fatalf("missing file should load empty at current schema, got %+v", tr)
	}

	r1 := attackRecord("a", 100, 2.0)
	r2 := attackRecord("b", 50, 1.2)
	if err := tr.Append(r1, r2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(Record{Suite: "s", Cell: "bad", Kind: "nope"}); err == nil {
		t.Fatal("append of an invalid record should fail")
	}
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}

	// Append-and-diff: a later run of cell "a" supersedes in Latest but
	// the log keeps both.
	tr2, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Append(attackRecord("a", 110, 2.1)); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Save(path); err != nil {
		t.Fatal(err)
	}
	tr3, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr3.Records) != 3 {
		t.Fatalf("log should keep all appends, got %d records", len(tr3.Records))
	}
	latest := tr3.Latest()
	if len(latest) != 2 {
		t.Fatalf("latest should have one record per cell, got %d", len(latest))
	}
	if latest[0].Cell != "a" || latest[0].Throughput != 110 {
		t.Fatalf("latest[0] should be the superseding run of a, got %+v", latest[0])
	}
	if latest[1].Cell != "b" {
		t.Fatalf("latest should preserve first-appearance order, got %+v", latest[1])
	}

	// Schema mismatch refuses to load.
	if err := os.WriteFile(path, []byte(`{"schema":99,"records":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(path); err == nil {
		t.Fatal("schema mismatch should refuse to load")
	}
}

func traj(recs ...Record) *Trajectory {
	t := NewTrajectory()
	t.Records = append(t.Records, recs...)
	return t
}

func TestCompareIdenticalPasses(t *testing.T) {
	old := traj(attackRecord("a", 100, 2.0), attackRecord("b", 50, 1.2))
	rep := Compare(old, traj(old.Records...), Tolerance{Speed: 0.1, Efficacy: 0.1})
	if rep.Regressed() {
		t.Fatalf("identical trajectories should pass, got %+v", rep.Regressions)
	}
	if rep.Compared != 2 {
		t.Fatalf("compared = %d, want 2", rep.Compared)
	}
}

func TestCompareThroughputRegression(t *testing.T) {
	// The acceptance criterion: an injected 20% throughput drop fails a
	// 10% gate.
	old := traj(attackRecord("a", 100, 2.0))
	slow := traj(attackRecord("a", 80, 2.0))
	rep := Compare(old, slow, Tolerance{Speed: 0.1, Efficacy: 0.1})
	if !rep.Regressed() {
		t.Fatal("20% throughput drop should fail a 10% gate")
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Metric != "throughput_qps" {
		t.Fatalf("expected one throughput regression, got %+v", rep.Regressions)
	}
	// The same drop passes a 25% gate.
	if rep := Compare(old, slow, Tolerance{Speed: 0.25, Efficacy: 0.1}); rep.Regressed() {
		t.Fatalf("20%% drop should pass a 25%% gate, got %+v", rep.Regressions)
	}
}

func TestCompareWallTimeFallback(t *testing.T) {
	// Imported ns_per_op records carry wall time but no throughput: the
	// speed gate falls back to wall, where more is worse.
	mk := func(wall float64) Record {
		return Record{Suite: "legacy", Cell: "x", Kind: "imported", WallSec: wall}
	}
	rep := Compare(traj(mk(1.0)), traj(mk(1.3)), Tolerance{Speed: 0.1, Efficacy: 0.1})
	if !rep.Regressed() || rep.Regressions[0].Metric != "wall_sec" {
		t.Fatalf("30%% wall-time rise should regress on wall_sec, got %+v", rep.Regressions)
	}
	if rep := Compare(traj(mk(1.0)), traj(mk(0.7)), Tolerance{Speed: 0.1}); rep.Regressed() {
		t.Fatalf("faster wall time is not a regression, got %+v", rep.Regressions)
	}
}

func TestCompareEfficacyRegression(t *testing.T) {
	old := traj(attackRecord("a", 100, 2.0))
	weaker := traj(attackRecord("a", 100, 1.5))
	rep := Compare(old, weaker, Tolerance{Speed: 0.1, Efficacy: 0.1})
	if !rep.Regressed() || rep.Regressions[0].Metric != "degradation" {
		t.Fatalf("25%% efficacy drop should regress on degradation, got %+v", rep.Regressions)
	}
	// A negative tolerance disables the axis.
	if rep := Compare(old, weaker, Tolerance{Speed: 0.1, Efficacy: -1}); rep.Regressed() {
		t.Fatalf("disabled efficacy gate should pass, got %+v", rep.Regressions)
	}
}

func TestCompareSpeedDisabled(t *testing.T) {
	old := traj(attackRecord("a", 100, 2.0))
	slow := traj(attackRecord("a", 10, 2.0))
	if rep := Compare(old, slow, Tolerance{Speed: -1, Efficacy: 0.1}); rep.Regressed() {
		t.Fatalf("disabled speed gate should pass a 90%% drop, got %+v", rep.Regressions)
	}
}

func TestCompareMissingAndNewCells(t *testing.T) {
	old := traj(attackRecord("a", 100, 2.0), attackRecord("b", 50, 1.2))
	next := traj(attackRecord("a", 100, 2.0), attackRecord("c", 70, 1.1))
	rep := Compare(old, next, Tolerance{Speed: 0.1, Efficacy: 0.1})
	if !rep.Regressed() {
		t.Fatal("a silently dropped cell should fail the gate")
	}
	if len(rep.MissingNew) != 1 || rep.MissingNew[0] != "s/b" {
		t.Fatalf("MissingNew = %v, want [s/b]", rep.MissingNew)
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "s/c" {
		t.Fatalf("OnlyNew = %v, want [s/c]", rep.OnlyNew)
	}
}

// tinySuite is a seconds-scale profile exercising the full record path.
func tinySuite() Suite {
	return Suite{
		Name: "tiny", Seed: 1,
		Scale: 0.02, TrainQueries: 60, TestQueries: 20, Epochs: 5,
		NumPoison: 10,
		Cells: []Cell{
			{Kind: "attack", Dataset: "dmv", Model: "linear", Method: "random"},
			{Kind: "load", Dataset: "dmv", Model: "linear", QPS: 200, DurationSec: 0.5},
		},
	}
}

func TestRunSuiteInProcess(t *testing.T) {
	recs, err := RunSuite(context.Background(), tinySuite(), Options{GitRev: "test", When: "now"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	atk, load := recs[0], recs[1]
	if atk.Kind != "attack" || atk.Degradation <= 0 || atk.QErrBefore == nil || atk.QErrAfter == nil {
		t.Fatalf("attack record incomplete: %+v", atk)
	}
	if atk.Throughput <= 0 || atk.WallSec <= 0 || atk.Codec != "local" {
		t.Fatalf("attack record missing speed columns: %+v", atk)
	}
	if load.Kind != "load" || load.OK == 0 || load.Throughput <= 0 {
		t.Fatalf("load record incomplete: %+v", load)
	}
	for _, r := range recs {
		if r.Suite != "tiny" || r.GitRev != "test" || r.When != "now" {
			t.Fatalf("provenance stamp missing: %+v", r)
		}
	}

	// Determinism: a second run's efficacy columns are bit-identical.
	recs2, err := RunSuite(context.Background(), tinySuite(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if recs2[0].Degradation != atk.Degradation {
		t.Fatalf("degradation not deterministic: %v vs %v", recs2[0].Degradation, atk.Degradation)
	}
}

// bootFleet starts n in-process paced backends behind a pacerouter whose
// tenant factory runs the given profile, returning the router URL.
func bootFleet(t *testing.T, cfg experiments.Config, n int) string {
	t.Helper()
	factory := experiments.TenantFactory(cfg)
	var urls []string
	for i := 0; i < n; i++ {
		scfg := targetserver.Config{Factory: factory}
		srv := targetserver.NewMulti(tenant.NewRegistry(scfg.Factory, scfg.TenantConfig()), scfg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() }) //nolint:errcheck
		urls = append(urls, "http://"+addr)
	}
	rt, err := router.New(router.Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() }) //nolint:errcheck
	return "http://" + raddr
}

func TestRunSuiteAgainstLiveFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("live-fleet run in -short mode")
	}
	s := tinySuite()
	url := bootFleet(t, s.Config(0), 2)

	recs, err := RunSuite(context.Background(), s, Options{TargetURL: url})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	atk, load := recs[0], recs[1]
	if atk.Codec != "binary" || load.Codec != "binary" {
		t.Fatalf("remote cells should record the wire codec, got %q/%q", atk.Codec, load.Codec)
	}
	if atk.WireBytesOut <= 0 || atk.WireBytesIn <= 0 {
		t.Fatalf("remote attack cell should count wire bytes: %+v", atk)
	}
	if load.OK == 0 || load.WireBytesIn <= 0 {
		t.Fatalf("remote load cell should serve traffic over the wire: %+v", load)
	}
	if err := atk.Validate(); err != nil {
		t.Fatal(err)
	}

	// Cross-process bit-identity: the fleet-hosted victim's efficacy
	// equals the in-process run's.
	local, err := RunSuite(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if local[0].Degradation != atk.Degradation {
		t.Fatalf("remote degradation %v != local %v", atk.Degradation, local[0].Degradation)
	}
}

func TestCapacityCell(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity sweep in -short mode")
	}
	s := Suite{
		Name: "cap", Seed: 1,
		Scale: 0.02, TrainQueries: 60, TestQueries: 20, Epochs: 5, NumPoison: 10,
		Cells: []Cell{
			{Kind: "capacity", Dataset: "dmv", Model: "linear",
				QPS: 100, DurationSec: 0.5, Nodes: []int{1, 2}},
		},
	}
	recs, err := RunSuite(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("capacity sweep should emit one record per fleet size, got %d", len(recs))
	}
	for i, want := range []int{1, 2} {
		r := recs[i]
		if r.Kind != "capacity" || r.Nodes != want || r.TenantsHosted != want {
			t.Fatalf("record %d: want nodes=tenants=%d, got %+v", i, want, r)
		}
		if r.OK == 0 || r.Throughput <= 0 {
			t.Fatalf("record %d served nothing: %+v", i, r)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Two nodes host twice the tenants and sweep at twice the offered
	// rate; admitted throughput should scale up, not collapse.
	if recs[1].Throughput < recs[0].Throughput {
		t.Fatalf("aggregate throughput fell when scaling 1->2 nodes: %v -> %v",
			recs[0].Throughput, recs[1].Throughput)
	}
	if recs[1].Sent <= recs[0].Sent {
		t.Fatalf("2-node sweep should offer more load: %d vs %d", recs[1].Sent, recs[0].Sent)
	}
}

func TestBuiltinSuitesValidate(t *testing.T) {
	for _, name := range []string{"smoke", "quick", "capacity"} {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("built-in %s: %v", name, err)
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Fatal("unknown built-in should error")
	}
}

// TestWorkloadLoadCell: a load cell with a workload spec replays the
// planned bursty stream instead of the uniform loop, and the record
// carries the arrival ledger plus per-SLO-class columns.
func TestWorkloadLoadCell(t *testing.T) {
	s := Suite{
		Name: "wl", Seed: 1,
		Scale: 0.02, TrainQueries: 60, TestQueries: 20, Epochs: 5, NumPoison: 10,
		Cells: []Cell{
			{Kind: "load", Dataset: "dmv", Model: "linear", QPS: 200, DurationSec: 2, Workload: "bursty"},
		},
	}
	recs, err := RunSuite(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Workload != "bursty" || !strings.Contains(rec.Cell, "bursty") {
		t.Fatalf("workload coordinate missing: %+v", rec)
	}
	if rec.Offered == 0 || rec.Offered != rec.Sent+rec.ClientDropped {
		t.Fatalf("arrival ledger broken: offered %d sent %d dropped %d",
			rec.Offered, rec.Sent, rec.ClientDropped)
	}
	// The bursty profile's gold/bronze splits must surface as columns.
	for _, k := range []string{"class_gold_latency_ms_p99", "class_gold_shed_fraction", "class_gold_offered"} {
		if _, ok := rec.Extra[k]; !ok {
			t.Errorf("class column %s missing from %v", k, rec.Extra)
		}
	}

	// Same suite, same seed: the planned stream is identical, so the
	// offered count is bit-identical across runs.
	recs2, err := RunSuite(context.Background(), s, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if recs2[0].Offered != rec.Offered {
		t.Fatalf("planned arrivals not deterministic: %d vs %d (workers=4)",
			recs2[0].Offered, rec.Offered)
	}
}
