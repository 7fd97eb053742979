package harness

// trajectory.go — the perf-history ledger behind `make bench-smoke`.
// Each smoke run regenerates the figure-6 slice JSON; instead of
// overwriting BENCH_fig6.json (losing the history), the trajectory layer
// carries forward the accumulated `trajectory` array from the previous
// file and appends one entry per run: the git SHA it measured plus the
// run's simulated-cycles-per-second. CI greps the ledger and fails when
// throughput drops more than a threshold below the latest earlier entry
// from the same host, so a simulator-speed regression is caught in
// tier-1, at the commit that introduced it, and a move to a slower
// machine is not.

import (
	"encoding/json"
	"fmt"
)

// TrajEntry is one point of the perf history: which commit was measured,
// what end-to-end throughput it delivered on the bench-smoke slice, and
// the host it was measured on: toolchain, scheduler width, harness
// worker count and CPU model. Only entries that agree on all four are
// compared (see sameHost).
type TrajEntry struct {
	GitSHA          string  `json:"git_sha"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimulatedCycles int64   `json:"simulated_cycles,omitempty"`
	GoVersion       string  `json:"go_version,omitempty"`
	GoMaxProcs      int     `json:"gomaxprocs,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	CPUModel        string  `json:"cpu_model,omitempty"`
}

// sameHost reports whether e and o were measured on the same host
// (same Go version, GOMAXPROCS, worker count and CPU model), which is
// what makes their throughputs comparable.
func (e TrajEntry) sameHost(o TrajEntry) bool {
	return e.GoVersion == o.GoVersion && e.GoMaxProcs == o.GoMaxProcs &&
		e.Workers == o.Workers && e.CPUModel == o.CPUModel
}

// matrixSummary is the slice of the matrix JSON the trajectory needs.
type matrixSummary struct {
	WallSeconds     float64 `json:"wall_seconds"`
	SimulatedCycles int64   `json:"simulated_cycles"`
	CyclesPerSec    float64 `json:"sim_cycles_per_sec"`
	Workers         int     `json:"workers"`
}

// AppendTrajectory merges a freshly generated matrix JSON (fresh) with
// the previous ledger file (prev, may be empty for a first run) and
// returns the new file contents plus the full trajectory including the
// entry appended for this run (tagged with sha).
//
// The fresh matrix becomes the file body, so every non-trajectory field
// reflects the latest run; only the trajectory array accumulates. A prev
// file from before the ledger existed contributes a synthetic baseline
// entry built from its own recorded throughput, so the history starts at
// the measurement that was already checked in rather than pretending the
// current run is the first.
func AppendTrajectory(fresh, prev []byte, sha string) ([]byte, []TrajEntry, error) {
	var sum matrixSummary
	if err := json.Unmarshal(fresh, &sum); err != nil {
		return nil, nil, fmt.Errorf("harness: trajectory: fresh matrix: %w", err)
	}
	if sum.CyclesPerSec <= 0 {
		return nil, nil, fmt.Errorf("harness: trajectory: fresh matrix has no sim_cycles_per_sec")
	}

	var history []TrajEntry
	if len(prev) > 0 {
		var old struct {
			matrixSummary
			Trajectory []TrajEntry `json:"trajectory"`
		}
		if err := json.Unmarshal(prev, &old); err != nil {
			return nil, nil, fmt.Errorf("harness: trajectory: previous ledger: %w", err)
		}
		history = old.Trajectory
		if len(history) == 0 && old.CyclesPerSec > 0 {
			history = []TrajEntry{{
				GitSHA:          "(pre-ledger baseline)",
				SimCyclesPerSec: old.CyclesPerSec,
				WallSeconds:     old.WallSeconds,
				SimulatedCycles: old.SimulatedCycles,
			}}
		}
	}
	entry := TrajEntry{
		GitSHA:          sha,
		SimCyclesPerSec: sum.CyclesPerSec,
		WallSeconds:     sum.WallSeconds,
		SimulatedCycles: sum.SimulatedCycles,
		Workers:         sum.Workers,
	}
	entry.GoVersion, entry.GoMaxProcs, entry.CPUModel = hostMeta()
	history = append(history, entry)

	// Re-emit the fresh matrix with the accumulated trajectory attached.
	var body map[string]json.RawMessage
	if err := json.Unmarshal(fresh, &body); err != nil {
		return nil, nil, fmt.Errorf("harness: trajectory: fresh matrix: %w", err)
	}
	traj, err := json.Marshal(history)
	if err != nil {
		return nil, nil, err
	}
	body["trajectory"] = traj
	out, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return append(out, '\n'), history, nil
}

// TrajectoryBaseline returns the entry the newest one is judged
// against: the latest earlier entry from the same host. ok is false when
// the history has no such entry.
func TrajectoryBaseline(history []TrajEntry) (base TrajEntry, ok bool) {
	for i := len(history) - 2; i >= 0; i-- {
		if history[i].sameHost(history[len(history)-1]) {
			return history[i], true
		}
	}
	return TrajEntry{}, false
}

// CheckTrajectory enforces the regression gate: the newest entry must
// not fall more than maxDrop (a fraction, e.g. 0.30) below its
// TrajectoryBaseline. Histories with no same-host baseline pass
// vacuously.
func CheckTrajectory(history []TrajEntry, maxDrop float64) error {
	prevE, ok := TrajectoryBaseline(history)
	if !ok {
		return nil
	}
	last := history[len(history)-1]
	floor := prevE.SimCyclesPerSec * (1 - maxDrop)
	if last.SimCyclesPerSec < floor {
		return fmt.Errorf("harness: trajectory: throughput regression: %s delivers %.3gM sim-cycles/s, more than %.0f%% below %s's %.3gM (floor %.3gM)",
			last.GitSHA, last.SimCyclesPerSec/1e6, 100*maxDrop,
			prevE.GitSHA, prevE.SimCyclesPerSec/1e6, floor/1e6)
	}
	return nil
}
