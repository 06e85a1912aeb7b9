// Package workloadgen generates realistic request streams: who calls
// (a heterogeneous, skew-rated client population), when they call
// (bursty renewal arrival processes, optionally gated by on/off burst
// periods), and what they ask (queries drawn to match an empirical
// shape distribution instead of round-robin replay).
//
// It is deliberately decoupled from the firing loop in internal/loadgen:
// this package only *plans* a stream — a Schedule of timestamped
// arrivals, each tagged with a client identity, an SLO class and a
// query — and never performs I/O against a target. Planning is pure and
// seeded: a fixed Spec yields a bit-identical Schedule on every run and
// at every worker count, because each client draws from its own
// splitmix64-split RNG stream (engine.SplitRNG) and the merge order is
// a deterministic function of the arrivals themselves. That purity is
// what makes traces trustworthy: a Schedule recorded to a JSONL trace
// replays to the exact same stream, so "the same load" can be offered
// to an in-process model, a single paced, and a routed fleet.
//
// The modeling follows the ServeGen decomposition (see SNIPPETS.md
// snippet 2) that the paper's robustness findings motivate: learned
// estimators are stress-tested by *shifting, skewed* workloads, so the
// crowd a campaign hides in must have skewed per-client rates and
// bursty interarrivals, not a uniform open loop.
package workloadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// SpecVersion identifies the spec schema carried inside traces; Load
// refuses a spec from a different major version rather than misreading
// its knobs.
const SpecVersion = 1

// Spec declares one workload: the client population, the arrival
// process each client runs, and the SLO-class mix. The JSON form is the
// -spec file of cmd/loadgen and the workload field of a bench cell.
type Spec struct {
	// V is the spec schema version (SpecVersion; 0 means current on
	// input and is canonicalized by Validate).
	V int `json:"v,omitempty"`
	// Name labels the spec in traces and reports.
	Name string `json:"name,omitempty"`
	// Seed drives every draw the spec causes (default 1). The same
	// (Spec, query pool) pair is bit-identical at any worker count.
	Seed int64 `json:"seed,omitempty"`

	Clients ClientSpec  `json:"clients"`
	Arrival ArrivalSpec `json:"arrival"`
	// Classes is the SLO-class mix; clients are assigned a class by
	// weighted draw. Empty means one class "default" with weight 1.
	Classes []ClassSpec `json:"classes,omitempty"`
}

// ClientSpec shapes the client population.
type ClientSpec struct {
	// N is the population size (default 8).
	N int `json:"n,omitempty"`
	// MeanQPS is the population's aggregate mean offered rate,
	// distributed across clients by RateDist (default 100).
	MeanQPS float64 `json:"mean_qps,omitempty"`
	// RateDist skews per-client rates: "zipf" (rank-frequency, the
	// heavy-headed default), "lognormal", or "uniform".
	RateDist string `json:"rate_dist,omitempty"`
	// ZipfS is the zipf exponent (default 1.1): client k gets weight
	// 1/k^s. Larger = more of the traffic concentrated on few clients.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Sigma is the lognormal shape (default 1.0): per-client weights
	// exp(sigma·z) with z standard normal.
	Sigma float64 `json:"sigma,omitempty"`
}

// ArrivalSpec shapes each client's interarrival process.
type ArrivalSpec struct {
	// Process: "poisson" (exponential interarrivals, the default),
	// "gamma" or "weibull".
	Process string `json:"process,omitempty"`
	// Shape is the gamma/weibull shape parameter k (default 0.5 for
	// both — k < 1 makes interarrivals burstier than Poisson; ignored
	// by "poisson"). Scale is always derived so the mean interarrival
	// matches the client's rate.
	Shape float64 `json:"shape,omitempty"`
	// OnOff, when set, gates the process through alternating on/off
	// periods: a client fires only during "on" windows, at a rate
	// scaled up so its mean offered rate is unchanged. This is the
	// coordinated-burst knob — equal mean rate, very different peaks.
	OnOff *OnOffSpec `json:"on_off,omitempty"`
}

// OnOffSpec shapes burst gating. Period lengths are exponential with
// the given means, drawn per client from its private stream.
type OnOffSpec struct {
	// OnSec and OffSec are the mean on/off period durations in seconds
	// (defaults 1 and 3).
	OnSec  float64 `json:"on_sec,omitempty"`
	OffSec float64 `json:"off_sec,omitempty"`
}

// ClassSpec is one SLO class and its share of the client population.
type ClassSpec struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// withDefaults fills zero fields with the package defaults.
func (s Spec) withDefaults() Spec {
	if s.V == 0 {
		s.V = SpecVersion
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Clients.N == 0 {
		s.Clients.N = 8
	}
	if s.Clients.MeanQPS == 0 {
		s.Clients.MeanQPS = 100
	}
	if s.Clients.RateDist == "" {
		s.Clients.RateDist = "zipf"
	}
	if s.Clients.ZipfS == 0 {
		s.Clients.ZipfS = 1.1
	}
	if s.Clients.Sigma == 0 {
		s.Clients.Sigma = 1.0
	}
	if s.Arrival.Process == "" {
		s.Arrival.Process = "poisson"
	}
	if s.Arrival.Shape == 0 {
		s.Arrival.Shape = 0.5
	}
	if s.Arrival.OnOff != nil {
		oo := *s.Arrival.OnOff
		if oo.OnSec == 0 {
			oo.OnSec = 1
		}
		if oo.OffSec == 0 {
			oo.OffSec = 3
		}
		s.Arrival.OnOff = &oo
	}
	if len(s.Classes) == 0 {
		s.Classes = []ClassSpec{{Name: "default", Weight: 1}}
	}
	return s
}

// Validate canonicalizes the spec (filling defaults) and checks it is
// generable. It returns the canonical form so traces always embed a
// fully-resolved spec.
func (s Spec) Validate() (Spec, error) {
	s = s.withDefaults()
	if s.V != SpecVersion {
		return s, fmt.Errorf("workloadgen: spec version %d, this build speaks %d", s.V, SpecVersion)
	}
	if s.Clients.N < 1 {
		return s, fmt.Errorf("workloadgen: client population %d < 1", s.Clients.N)
	}
	if s.Clients.MeanQPS <= 0 {
		return s, fmt.Errorf("workloadgen: mean rate %v <= 0", s.Clients.MeanQPS)
	}
	switch s.Clients.RateDist {
	case "zipf", "lognormal", "uniform":
	default:
		return s, fmt.Errorf("workloadgen: unknown rate_dist %q (want zipf, lognormal or uniform)", s.Clients.RateDist)
	}
	switch s.Arrival.Process {
	case "poisson", "gamma", "weibull":
	default:
		return s, fmt.Errorf("workloadgen: unknown arrival process %q (want poisson, gamma or weibull)", s.Arrival.Process)
	}
	if s.Arrival.Shape <= 0 {
		return s, fmt.Errorf("workloadgen: arrival shape %v <= 0", s.Arrival.Shape)
	}
	if oo := s.Arrival.OnOff; oo != nil && (oo.OnSec <= 0 || oo.OffSec < 0) {
		return s, fmt.Errorf("workloadgen: on/off periods on=%vs off=%vs invalid", oo.OnSec, oo.OffSec)
	}
	var wsum float64
	for _, c := range s.Classes {
		if c.Name == "" || strings.ContainsAny(c.Name, " \t\n\"") {
			return s, fmt.Errorf("workloadgen: class name %q invalid", c.Name)
		}
		if c.Weight < 0 {
			return s, fmt.Errorf("workloadgen: class %s has negative weight", c.Name)
		}
		wsum += c.Weight
	}
	if wsum <= 0 {
		return s, fmt.Errorf("workloadgen: class weights sum to %v", wsum)
	}
	return s, nil
}

// LoadSpec reads and validates a spec from a JSON file.
func LoadSpec(path string) (Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return Spec{}, fmt.Errorf("workloadgen: %s: %w", path, err)
	}
	s, err = s.Validate()
	if err != nil {
		return Spec{}, fmt.Errorf("workloadgen: %s: %w", path, err)
	}
	return s, nil
}

// Builtin returns a named built-in spec, the profiles bench cells and
// quickstarts reference without a spec file:
//
//   - "uniform": one client, Poisson arrivals — the stream of every
//     rate-only run (loadgen without -spec, bench cells without a
//     workload), with MeanQPS set to the asked rate.
//   - "bursty": 16 zipf-rated clients, gamma(0.5) interarrivals gated
//     by 1s-on/3s-off burst windows, a 70/30 gold/bronze class mix —
//     equal mean rate to "uniform", very different peaks.
func Builtin(name string) (Spec, error) {
	switch name {
	case "uniform":
		return Spec{
			Name:    "uniform",
			Clients: ClientSpec{N: 1, RateDist: "uniform"},
			Arrival: ArrivalSpec{Process: "poisson"},
		}.Validate()
	case "bursty":
		return Spec{
			Name:    "bursty",
			Clients: ClientSpec{N: 16, RateDist: "zipf"},
			Arrival: ArrivalSpec{
				Process: "gamma", Shape: 0.5,
				OnOff: &OnOffSpec{OnSec: 1, OffSec: 3},
			},
			Classes: []ClassSpec{
				{Name: "gold", Weight: 0.7},
				{Name: "bronze", Weight: 0.3},
			},
		}.Validate()
	default:
		return Spec{}, fmt.Errorf("workloadgen: unknown built-in spec %q (have uniform, bursty)", name)
	}
}
