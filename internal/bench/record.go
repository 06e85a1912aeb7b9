// Package bench is the repository's benchmark harness: it sweeps a
// declarative suite specification (datasets × estimator models × attack
// methods × fault profiles × codecs) against in-process worlds or a live
// fleet and emits every cell as a machine-readable Record into one
// BENCH.json trajectory. The trajectory is append-and-diff: each run
// appends records stamped with the git revision, and Compare diffs the
// latest records per cell between two trajectories so CI can gate on
// speed and attack-efficacy regressions.
package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"pace/internal/metrics"
)

// SchemaVersion identifies the record schema; Load refuses a trajectory
// from a different major schema rather than misreading it.
const SchemaVersion = 1

// Record is one benchmark cell's outcome — the unified schema every
// producer (suite runner, capacity sweep, legacy importer) emits.
type Record struct {
	// Suite and Cell identify the measurement: Suite names the sweep,
	// Cell is unique within it. Compare keys on "suite/cell".
	Suite string `json:"suite"`
	Cell  string `json:"cell"`
	// Kind classifies the cell: "attack", "load", "capacity" or
	// "imported".
	Kind string `json:"kind"`
	// GitRev and When stamp provenance (filled by the CLI; When is
	// RFC3339).
	GitRev string `json:"git_rev,omitempty"`
	When   string `json:"when,omitempty"`
	// Seed is the deterministic seed the cell ran under.
	Seed int64 `json:"seed,omitempty"`

	// Sweep coordinates (empty when not applicable).
	Dataset string `json:"dataset,omitempty"`
	Model   string `json:"model,omitempty"`
	Method  string `json:"method,omitempty"`
	Faults  string `json:"faults,omitempty"`
	// Codec is the wire codec of a remote cell ("binary", "json") or
	// "local" for an in-process target.
	Codec string `json:"codec,omitempty"`
	// Workload names the planned stream of a workload-shaped load or
	// capacity cell (a built-in profile or spec file); empty means the
	// "uniform" built-in.
	Workload string `json:"workload,omitempty"`
	// Nodes is the fleet size of a capacity cell.
	Nodes int `json:"nodes,omitempty"`

	// Speed metrics.
	WallSec    float64 `json:"wall_sec"`
	Throughput float64 `json:"throughput_qps,omitempty"`
	// Latency percentiles in milliseconds over the cell's target calls
	// (attack cells: estimate latency from the obs histogram; load
	// cells: served-request latency).
	LatencyMsP50 float64 `json:"latency_ms_p50,omitempty"`
	LatencyMsP90 float64 `json:"latency_ms_p90,omitempty"`
	LatencyMsP99 float64 `json:"latency_ms_p99,omitempty"`

	// Attack efficacy: test Q-error before and after poisoning, and
	// their mean ratio (after/before — the "mean degradation" headline).
	QErrBefore  *metrics.Summary `json:"qerr_before,omitempty"`
	QErrAfter   *metrics.Summary `json:"qerr_after,omitempty"`
	Degradation float64          `json:"degradation,omitempty"`

	// Wire accounting of remote cells (body bytes, headers excluded).
	WireBytesOut int64 `json:"wire_bytes_out,omitempty"`
	WireBytesIn  int64 `json:"wire_bytes_in,omitempty"`

	// Load/capacity accounting. Offered counts planned arrivals
	// (Sent + client-side drops); per-SLO-class splits of workload-shaped
	// cells land in Extra as class_<name>_* columns.
	Offered       int64 `json:"offered,omitempty"`
	Sent          int64 `json:"sent,omitempty"`
	OK            int64 `json:"ok,omitempty"`
	Shed          int64 `json:"shed_429,omitempty"`
	Errors        int64 `json:"errors,omitempty"`
	ClientDropped int64 `json:"client_dropped,omitempty"`
	TenantsHosted int   `json:"tenants_hosted,omitempty"`

	// Extra carries numeric metrics that have no first-class column —
	// chiefly legacy imports (ns_per_op maps, codec microbenchmarks).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Notes is free-form context (legacy descriptions, environment).
	Notes string `json:"notes,omitempty"`
}

// Key is the identity Compare diffs on.
func (r Record) Key() string { return r.Suite + "/" + r.Cell }

// Validate checks the invariants every record must satisfy before it
// enters a trajectory.
func (r Record) Validate() error {
	if r.Suite == "" || r.Cell == "" {
		return fmt.Errorf("bench: record needs suite and cell (got %q/%q)", r.Suite, r.Cell)
	}
	switch r.Kind {
	case "attack", "load", "capacity", "imported":
	default:
		return fmt.Errorf("bench: record %s has unknown kind %q", r.Key(), r.Kind)
	}
	if r.WallSec < 0 || r.Throughput < 0 || r.Degradation < 0 {
		return fmt.Errorf("bench: record %s carries a negative metric", r.Key())
	}
	if r.Kind == "attack" && r.Degradation == 0 {
		return fmt.Errorf("bench: attack record %s has no degradation", r.Key())
	}
	return nil
}

// Trajectory is the whole BENCH.json file: a schema tag plus the
// append-only record log.
type Trajectory struct {
	Schema  int      `json:"schema"`
	Records []Record `json:"records"`
}

// NewTrajectory returns an empty trajectory at the current schema.
func NewTrajectory() *Trajectory { return &Trajectory{Schema: SchemaVersion} }

// Append validates and appends records.
func (t *Trajectory) Append(recs ...Record) error {
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
		t.Records = append(t.Records, r)
	}
	return nil
}

// Latest reduces the log to the most recent record per cell key,
// preserving first-appearance order of the keys.
func (t *Trajectory) Latest() []Record {
	idx := make(map[string]int)
	var out []Record
	for _, r := range t.Records {
		if i, ok := idx[r.Key()]; ok {
			out[i] = r
			continue
		}
		idx[r.Key()] = len(out)
		out = append(out, r)
	}
	return out
}

// LoadTrajectory reads a BENCH.json. A missing file is an empty
// trajectory (first run appends to nothing); a schema mismatch is an
// error.
func LoadTrajectory(path string) (*Trajectory, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewTrajectory(), nil
	}
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if t.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema %d, this build reads %d", path, t.Schema, SchemaVersion)
	}
	for _, r := range t.Records {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
	}
	return &t, nil
}

// Save writes the trajectory atomically (tmp + rename) so a crash never
// truncates an existing BENCH.json.
func (t *Trajectory) Save(path string) error {
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
