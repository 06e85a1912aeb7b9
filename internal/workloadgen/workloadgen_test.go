package workloadgen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pace/internal/query"
)

// testMeta is a 2-table / 3-attr schema shared by all tests.
func testMeta() *query.Meta {
	return &query.Meta{
		TableNames: []string{"t0", "t1"},
		AttrNames:  []string{"t0.a", "t0.b", "t1.a"},
		AttrOffset: []int{0, 2, 3},
	}
}

// testPool builds a deterministic pool of n queries with varied shapes:
// alternating single-table and join queries with narrow and wide
// predicates, so shape fitting has distinct buckets to latch onto.
func testPool(n int) []*query.Query {
	m := testMeta()
	pool := make([]*query.Query, n)
	for i := range pool {
		q := query.New(m)
		q.Tables[0] = true
		if i%2 == 1 {
			q.Tables[1] = true
			q.Bounds[2] = [2]float64{0.1, 0.2 + 0.01*float64(i%10)}
		}
		q.Bounds[0] = [2]float64{0, 0.3 + 0.05*float64(i%5)}
		pool[i] = q.Normalize(m)
	}
	return pool
}

func burstySpec() Spec {
	return Spec{
		Name: "test-bursty",
		Seed: 42,
		Clients: ClientSpec{
			N: 2, MeanQPS: 400, RateDist: "zipf",
		},
		Arrival: ArrivalSpec{
			Process: "gamma", Shape: 0.5,
			OnOff: &OnOffSpec{OnSec: 0.5, OffSec: 1.0},
		},
		Classes: []ClassSpec{
			{Name: "gold", Weight: 0.7},
			{Name: "bronze", Weight: 0.3},
		},
	}
}

// TestGenerateDeterministicAcrossWorkers: the acceptance criterion of
// the workload engine — a fixed (spec, pool) plans a bit-identical
// schedule on every run and at every worker count: same arrival times,
// same client assignment, same query keys.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	pool := testPool(20)
	ref, err := Generate(burstySpec(), pool, nil, 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Arrivals) == 0 {
		t.Fatal("reference schedule planned no arrivals")
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got, err := Generate(burstySpec(), pool, nil, 5*time.Second, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Clients, ref.Clients) {
			t.Fatalf("workers=%d: client roster diverged", workers)
		}
		if !reflect.DeepEqual(got.Arrivals, ref.Arrivals) {
			t.Fatalf("workers=%d: arrival schedule diverged (%d vs %d arrivals)",
				workers, len(got.Arrivals), len(ref.Arrivals))
		}
		for i := range got.Queries {
			if got.Queries[i].Key() != ref.Queries[i].Key() {
				t.Fatalf("workers=%d: query %d key diverged", workers, i)
			}
		}
	}
}

// TestGenerateOrdersArrivals: the merged stream is non-decreasing in
// time and every index is in range — the invariants RunSchedule and
// WriteTrace rely on.
func TestGenerateOrdersArrivals(t *testing.T) {
	s, err := Generate(burstySpec(), testPool(10), nil, 3*time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration = -1
	for i, a := range s.Arrivals {
		if a.T < prev {
			t.Fatalf("arrival %d at %v precedes %v", i, a.T, prev)
		}
		prev = a.T
		if a.Client < 0 || a.Client >= len(s.Clients) {
			t.Fatalf("arrival %d references client %d of %d", i, a.Client, len(s.Clients))
		}
		if a.Query < 0 || a.Query >= len(s.Queries) {
			t.Fatalf("arrival %d references query %d of %d", i, a.Query, len(s.Queries))
		}
	}
}

// TestGenerateMeanRate: every arrival process — including on/off
// gating, whose whole point is equal mean with different peaks — must
// offer the spec's mean rate over a long horizon.
func TestGenerateMeanRate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arrival ArrivalSpec
		tol     float64
	}{
		{"poisson", ArrivalSpec{Process: "poisson"}, 0.10},
		{"gamma", ArrivalSpec{Process: "gamma", Shape: 0.5}, 0.10},
		{"weibull", ArrivalSpec{Process: "weibull", Shape: 0.5}, 0.10},
		// On/off pushes all variance into window placement; a 60s
		// horizon sees ~40 cycles, so allow a looser band.
		{"onoff", ArrivalSpec{Process: "gamma", Shape: 0.5,
			OnOff: &OnOffSpec{OnSec: 0.5, OffSec: 1.0}}, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				Seed:    7,
				Clients: ClientSpec{N: 4, MeanQPS: 300, RateDist: "uniform"},
				Arrival: tc.arrival,
			}
			horizon := 60 * time.Second
			s, err := Generate(spec, testPool(5), nil, horizon, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := spec.Clients.MeanQPS * horizon.Seconds()
			got := float64(len(s.Arrivals))
			if math.Abs(got-want)/want > tc.tol {
				t.Errorf("%s offered %v arrivals over %v, want %v ±%v%%",
					tc.name, got, horizon, want, tc.tol*100)
			}
		})
	}
}

// TestGenerateRejectsRunawaySchedules: a typo'd rate fails fast instead
// of planning millions of arrivals.
func TestGenerateRejectsRunawaySchedules(t *testing.T) {
	spec := Spec{Clients: ClientSpec{MeanQPS: 1e7}}
	if _, err := Generate(spec, testPool(2), nil, time.Hour, 0); err == nil {
		t.Error("1e7 qps over an hour generated instead of failing")
	}
	// A rate no firing loop can offer is refused up front, not clamped.
	extreme := Spec{Clients: ClientSpec{N: 1, MeanQPS: 5e9, RateDist: "uniform"}}
	if _, err := Generate(extreme, testPool(2), nil, 20*time.Millisecond, 0); err == nil {
		t.Error("5e9 qps over 20ms generated instead of failing")
	}
	if _, err := Generate(Spec{}, nil, nil, time.Second, 0); err == nil {
		t.Error("empty pool generated")
	}
	if _, err := Generate(Spec{}, testPool(1), nil, 0, 0); err == nil {
		t.Error("zero horizon generated")
	}
}

// TestPopulation: zipf rates are rank-ordered and every dist normalizes
// to the aggregate mean; the class mix follows the weights.
func TestPopulation(t *testing.T) {
	for _, dist := range []string{"zipf", "lognormal", "uniform"} {
		spec, err := Spec{
			Seed:    3,
			Clients: ClientSpec{N: 50, MeanQPS: 500, RateDist: dist},
			Classes: []ClassSpec{{Name: "gold", Weight: 0.7}, {Name: "bronze", Weight: 0.3}},
		}.Validate()
		if err != nil {
			t.Fatal(err)
		}
		cs := population(spec)
		var sum float64
		gold := 0
		for i, c := range cs {
			sum += c.Rate
			if c.ID != fmt.Sprintf("c%03d", i) {
				t.Errorf("%s: client %d has ID %q", dist, i, c.ID)
			}
			switch c.Class {
			case "gold":
				gold++
			case "bronze":
			default:
				t.Errorf("%s: client %d in unknown class %q", dist, i, c.Class)
			}
		}
		if math.Abs(sum-500) > 1e-6 {
			t.Errorf("%s: rates sum to %v, want 500", dist, sum)
		}
		// 50 draws at p=0.7: the binomial 5σ band is ~±16.
		if gold < 19 || gold > 50 {
			t.Errorf("%s: %d/50 clients gold, want ~35", dist, gold)
		}
	}
	// Zipf is rank-frequency: rates strictly decreasing.
	spec, _ := Spec{Clients: ClientSpec{N: 10, MeanQPS: 100, RateDist: "zipf"}}.Validate()
	cs := population(spec)
	for i := 1; i < len(cs); i++ {
		if cs[i].Rate >= cs[i-1].Rate {
			t.Errorf("zipf rate %d (%v) >= rate %d (%v)", i, cs[i].Rate, i-1, cs[i-1].Rate)
		}
	}
}

// TestSpecValidate: malformed specs are refused with the field named.
func TestSpecValidate(t *testing.T) {
	for name, s := range map[string]Spec{
		"bad version":     {V: 99},
		"bad rate dist":   {Clients: ClientSpec{RateDist: "pareto"}},
		"bad process":     {Arrival: ArrivalSpec{Process: "cauchy"}},
		"negative shape":  {Arrival: ArrivalSpec{Shape: -1}},
		"negative weight": {Classes: []ClassSpec{{Name: "a", Weight: -1}}},
		"unnamed class":   {Classes: []ClassSpec{{Name: "", Weight: 1}}},
		"zero weights":    {Classes: []ClassSpec{{Name: "a", Weight: 0}}},
		"negative on":     {Arrival: ArrivalSpec{OnOff: &OnOffSpec{OnSec: -1, OffSec: 1}}},
	} {
		if _, err := s.Validate(); err == nil {
			t.Errorf("%s validated", name)
		}
	}
	// The zero spec canonicalizes to the documented defaults.
	s, err := Spec{}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.V != SpecVersion || s.Seed != 1 || s.Clients.N != 8 ||
		s.Clients.RateDist != "zipf" || s.Arrival.Process != "poisson" ||
		len(s.Classes) != 1 || s.Classes[0].Name != "default" {
		t.Errorf("zero spec canonicalized to %+v", s)
	}
}

// TestBuiltinSpecs: both named profiles validate and differ only in
// burstiness, not mean rate.
func TestBuiltinSpecs(t *testing.T) {
	u, err := Builtin("uniform")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Builtin("bursty")
	if err != nil {
		t.Fatal(err)
	}
	if u.Clients.MeanQPS != b.Clients.MeanQPS {
		t.Errorf("uniform offers %v qps, bursty %v — the comparison needs equal means",
			u.Clients.MeanQPS, b.Clients.MeanQPS)
	}
	if b.Arrival.OnOff == nil {
		t.Error("bursty profile has no on/off gating")
	}
	if _, err := Builtin("nope"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestLoadSpec round-trips a spec file.
func TestLoadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","clients":{"n":3,"mean_qps":50}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x" || s.Clients.N != 3 || s.Clients.MeanQPS != 50 || s.Arrival.Process != "poisson" {
		t.Errorf("loaded %+v", s)
	}
	if err := os.WriteFile(path, []byte(`{"clients":{"rate_dist":"pareto"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Error("invalid spec file loaded")
	}
}

// TestShapeSampler: a fit concentrated on one shape bucket draws only
// pool queries in that bucket; with zero overlap it degrades to uniform
// over the whole pool.
func TestShapeSampler(t *testing.T) {
	m := testMeta()
	pool := testPool(20) // even indexes: 1-table; odd: 2-table joins
	// Fit from a workload that is 100% single-table, one predicate.
	var fitSrc []*query.Query
	for i := 0; i < 8; i++ {
		q := query.New(m)
		q.Tables[0] = true
		q.Bounds[0] = [2]float64{0, 0.4}
		fitSrc = append(fitSrc, q.Normalize(m))
	}
	s := NewSampler(FitShapes(fitSrc), pool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		idx := s.Draw(rng)
		if idx%2 != 0 {
			t.Fatalf("draw %d picked pool index %d, a join query outside the fitted shape", i, idx)
		}
	}

	// No overlap: fit is all 2-predicate joins over a pool of open
	// queries → uniform over the whole pool.
	open := make([]*query.Query, 5)
	for i := range open {
		open[i] = query.New(m)
	}
	u := NewSampler(FitShapes(fitSrc), open)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		seen[u.Draw(rng)] = true
	}
	if len(seen) != len(open) {
		t.Errorf("uniform fallback covered %d/%d pool indexes", len(seen), len(open))
	}
}

// TestTraceRoundTrip: record → read → re-record is byte-identical, and
// the replayed schedule preserves per-client arrival counts, classes
// and query keys exactly. Generation at different worker counts feeds
// the same trace bytes — the satellite determinism requirement.
func TestTraceRoundTrip(t *testing.T) {
	m := testMeta()
	pool := testPool(12)
	dir := t.TempDir()

	write := func(name string, workers int) ([]byte, *Schedule) {
		s, err := Generate(burstySpec(), pool, nil, 2*time.Second, workers)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := WriteTrace(path, s, m); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, s
	}

	raw1, orig := write("t1.jsonl", 1)
	raw4, _ := write("t4.jsonl", 4)
	if !bytes.Equal(raw1, raw4) {
		t.Fatal("traces from workers=1 and workers=4 differ byte-for-byte")
	}

	replay, err := ReadTrace(filepath.Join(dir, "t1.jsonl"), m)
	if err != nil {
		t.Fatal(err)
	}
	// Re-recording the replayed schedule reproduces the file exactly
	// (µs truncation is idempotent, encoding is struct-only).
	rePath := filepath.Join(dir, "re.jsonl")
	if err := WriteTrace(rePath, replay, m); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(rePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("record → replay → re-record changed the trace bytes")
	}

	if len(replay.Arrivals) != len(orig.Arrivals) {
		t.Fatalf("replay has %d arrivals, recorded %d", len(replay.Arrivals), len(orig.Arrivals))
	}
	perClient := make(map[int]int)
	for i, a := range replay.Arrivals {
		perClient[a.Client]++
		o := orig.Arrivals[i]
		if a.Client != o.Client || a.Query != o.Query {
			t.Fatalf("arrival %d replayed as client %d query %d, recorded %d/%d",
				i, a.Client, a.Query, o.Client, o.Query)
		}
		if a.T != o.T.Truncate(time.Microsecond) {
			t.Fatalf("arrival %d replayed at %v, recorded %v", i, a.T, o.T)
		}
	}
	if len(perClient) < 2 {
		t.Fatalf("trace exercises %d clients, want ≥ 2 for the determinism claim", len(perClient))
	}
	for i := range replay.Queries {
		if replay.Queries[i].Key() != orig.Queries[i].Key() {
			t.Fatalf("query %d key changed through the trace", i)
		}
	}
	for i, c := range replay.Clients {
		if c != orig.Clients[i] {
			t.Fatalf("client %d replayed as %+v, recorded %+v", i, c, orig.Clients[i])
		}
	}
}

// TestTraceRejectsMismatches: wrong kind, wrong schema version and a
// different dataset shape all refuse loudly.
func TestTraceRejectsMismatches(t *testing.T) {
	m := testMeta()
	s, err := Generate(burstySpec(), testPool(4), nil, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := WriteTrace(path, s, m); err != nil {
		t.Fatal(err)
	}

	// Replaying against a different schema must fail.
	other := &query.Meta{
		TableNames: []string{"solo"},
		AttrNames:  []string{"solo.a"},
		AttrOffset: []int{0, 1},
	}
	if _, err := ReadTrace(path, other); err == nil {
		t.Error("trace replayed against a mismatched dataset meta")
	}

	// A tampered schema number must fail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(raw, []byte(`{"schema":1`), []byte(`{"schema":99`), 1)
	badPath := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(badPath, m); err == nil {
		t.Error("future-schema trace accepted")
	}

	// A non-trace JSONL file must fail on kind.
	if err := os.WriteFile(badPath, []byte(`{"schema":1,"kind":"something-else"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(badPath, m); err == nil {
		t.Error("non-trace file accepted")
	}

	// A truncated trace must fail rather than replay a partial stream.
	trunc := raw[:len(raw)-len(raw)/4]
	if err := os.WriteFile(badPath, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(badPath, m); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestTraceRejectsOutOfRangeOffsets: an arrival offset that is negative,
// or too large for a time.Duration, must fail rather than replay at a
// wrapped-around time.
func TestTraceRejectsOutOfRangeOffsets(t *testing.T) {
	m := testMeta()
	s, err := Generate(burstySpec(), testPool(4), nil, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Arrivals = s.Arrivals[:1]
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	if err := WriteTrace(path, s, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	us := fmt.Sprintf(`{"us":%d,`, s.Arrivals[0].T.Microseconds())
	if !bytes.Contains(raw, []byte(us)) {
		t.Fatalf("trace has no arrival line starting %s", us)
	}
	for _, bad := range []string{`{"us":-1,`, `{"us":9300000000000000,`} {
		badPath := filepath.Join(dir, "bad.jsonl")
		if err := os.WriteFile(badPath, bytes.Replace(raw, []byte(us), []byte(bad), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := ReadTrace(badPath, m); err == nil {
			t.Errorf("arrival %s accepted, replays at %v", bad, r.Arrivals[0].T)
		}
	}
}
