package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"pace/internal/core"
)

// Cell is one benchmark measurement in a suite: an attack campaign, a
// load run, or a fleet-capacity sweep.
type Cell struct {
	// Name uniquely identifies the cell within the suite; empty derives
	// "kind-dataset-model-method-faults-codec-workload".
	Name string `json:"name,omitempty"`
	// Kind: "attack", "load" or "capacity".
	Kind string `json:"kind"`

	// Attack/load coordinates.
	Dataset string `json:"dataset,omitempty"`
	Model   string `json:"model,omitempty"`
	// Method is an attack cell's poisoning method: random, lbs, greedy,
	// lbg or pace.
	Method string `json:"method,omitempty"`
	// Faults names an injected unreliability profile (see
	// internal/faults); empty means a reliable target.
	Faults string `json:"faults,omitempty"`
	// Codec selects the wire codec for remote runs ("binary", "json").
	// Ignored in-process, where the codec column records "local".
	Codec string `json:"codec,omitempty"`

	// Load-cell knobs.
	QPS         float64 `json:"qps,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Workload names the workloadgen stream a load or capacity cell
	// fires (a built-in profile name like "bursty" or a spec-file
	// path; empty plans the "uniform" built-in), offered at the cell's
	// QPS so equal-mean cells stay comparable.
	Workload string `json:"workload,omitempty"`

	// Capacity-cell knob: the fleet sizes to sweep (e.g. [1, 2, 4]).
	Nodes []int `json:"nodes,omitempty"`
}

// ID returns the cell's unique name within its suite.
func (c Cell) ID() string {
	if c.Name != "" {
		return c.Name
	}
	parts := []string{c.Kind}
	for _, p := range []string{c.Dataset, c.Model, c.Method, c.Faults, c.Codec, c.Workload} {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return strings.Join(parts, "-")
}

// Suite is a declarative benchmark specification: a seed, a profile and
// the cells to measure. The same suite at the same seed produces
// bit-identical attack-efficacy numbers on any machine — speed columns
// are machine-bound, efficacy columns are not.
type Suite struct {
	Name string `json:"name"`
	// Seed drives every cell's randomness (default 1).
	Seed int64 `json:"seed,omitempty"`

	// Profile knobs mapped onto experiments.Config; zero fields take
	// that package's quick-profile defaults.
	Scale        float64 `json:"scale,omitempty"`
	TrainQueries int     `json:"train_queries,omitempty"`
	TestQueries  int     `json:"test_queries,omitempty"`
	Epochs       int     `json:"epochs,omitempty"`
	Inner        int     `json:"inner,omitempty"`
	Outer        int     `json:"outer,omitempty"`
	NumPoison    int     `json:"num_poison,omitempty"`

	Cells []Cell `json:"cells"`
}

// Validate checks the suite is runnable before any cell spends time.
func (s Suite) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("bench: suite needs a name")
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("bench: suite %s has no cells", s.Name)
	}
	seen := make(map[string]bool, len(s.Cells))
	for _, c := range s.Cells {
		id := c.ID()
		if seen[id] {
			return fmt.Errorf("bench: suite %s has duplicate cell %q", s.Name, id)
		}
		seen[id] = true
		switch c.Kind {
		case "attack":
			if c.Dataset == "" || c.Model == "" || c.Method == "" {
				return fmt.Errorf("bench: attack cell %q needs dataset, model and method", id)
			}
			if _, err := parseMethod(c.Method); err != nil {
				return err
			}
		case "load":
			if c.Dataset == "" || c.Model == "" || c.QPS <= 0 {
				return fmt.Errorf("bench: load cell %q needs dataset, model and qps", id)
			}
		case "capacity":
			if len(c.Nodes) == 0 {
				return fmt.Errorf("bench: capacity cell %q needs a nodes list", id)
			}
		default:
			return fmt.Errorf("bench: cell %q has unknown kind %q", id, c.Kind)
		}
	}
	return nil
}

// parseMethod maps a suite's lowercase method token onto core.Method.
func parseMethod(name string) (core.Method, error) {
	switch strings.ToLower(name) {
	case "random":
		return core.Random, nil
	case "lbs":
		return core.LbS, nil
	case "greedy":
		return core.Greedy, nil
	case "lbg":
		return core.LbG, nil
	case "pace":
		return core.PACE, nil
	default:
		return 0, fmt.Errorf("bench: unknown attack method %q", name)
	}
}

// Builtin returns a named built-in suite.
//
//   - "smoke": the CI gate — two cheap baseline attacks, one PACE
//     campaign and a short load run on the small profile, a few
//     seconds in-process.
//   - "quick": the laptop sweep — attacks across two models and three
//     methods (PACE included), fault-profile and codec load cells.
//   - "capacity": the fleet-capacity sweep of pacerouter with 1, 2 and
//     4 paced nodes.
func Builtin(name string) (Suite, error) {
	switch name {
	case "smoke":
		return Suite{
			Name: "smoke",
			Seed: 1,
			// Small profile: linear models train in milliseconds, so the
			// whole suite is CI-sized while still spanning surrogate
			// training, baseline poisoning, a full PACE campaign,
			// evaluation and open-loop load. Efficacy columns are
			// seed-deterministic; speed columns are machine-bound.
			Scale: 0.02, TrainQueries: 120, TestQueries: 40, Epochs: 10,
			NumPoison: 30,
			Cells: []Cell{
				{Kind: "attack", Dataset: "dmv", Model: "linear", Method: "random"},
				{Kind: "attack", Dataset: "dmv", Model: "linear", Method: "greedy"},
				{Kind: "attack", Dataset: "dmv", Model: "linear", Method: "pace"},
				{Kind: "load", Dataset: "dmv", Model: "linear", QPS: 300, DurationSec: 2},
			},
		}, nil
	case "quick":
		return Suite{
			Name: "quick",
			Seed: 1,
			Cells: []Cell{
				{Kind: "attack", Dataset: "dmv", Model: "linear", Method: "random"},
				{Kind: "attack", Dataset: "dmv", Model: "linear", Method: "greedy"},
				{Kind: "attack", Dataset: "dmv", Model: "linear", Method: "pace"},
				{Kind: "attack", Dataset: "dmv", Model: "fcn", Method: "greedy"},
				{Kind: "attack", Dataset: "dmv", Model: "fcn", Method: "pace"},
				{Kind: "attack", Dataset: "dmv", Model: "fcn", Method: "greedy", Faults: "flaky"},
				{Kind: "load", Dataset: "dmv", Model: "linear", QPS: 300, DurationSec: 5},
				{Kind: "load", Dataset: "dmv", Model: "linear", QPS: 300, DurationSec: 5, Codec: "binary"},
				{Kind: "load", Dataset: "dmv", Model: "linear", QPS: 300, DurationSec: 5, Codec: "json"},
				// Equal mean rate to the uniform cell above, very
				// different peaks: the burstiness comparison.
				{Kind: "load", Dataset: "dmv", Model: "linear", QPS: 300, DurationSec: 5, Workload: "bursty"},
			},
		}, nil
	case "capacity":
		return Suite{
			Name: "capacity",
			Seed: 1,
			Cells: []Cell{
				{Kind: "capacity", Dataset: "dmv", Model: "linear", QPS: 150, DurationSec: 4,
					Nodes: []int{1, 2, 4}},
			},
		}, nil
	default:
		return Suite{}, fmt.Errorf("bench: unknown built-in suite %q (have smoke, quick, capacity)", name)
	}
}

// LoadSuite reads a suite specification from a JSON file.
func LoadSuite(path string) (Suite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Suite{}, err
	}
	var s Suite
	if err := json.Unmarshal(raw, &s); err != nil {
		return Suite{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Suite{}, err
	}
	return s, nil
}
