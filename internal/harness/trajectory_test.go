package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

func matrixJSON(cps, wall float64, cycles int64) []byte {
	b, _ := json.Marshal(map[string]any{
		"machine":            "idle",
		"rows":               []any{},
		"wall_seconds":       wall,
		"simulated_cycles":   cycles,
		"sim_cycles_per_sec": cps,
	})
	return b
}

// TestTrajectoryFirstRun: with no previous ledger the history is the
// single fresh entry.
func TestTrajectoryFirstRun(t *testing.T) {
	out, hist, err := AppendTrajectory(matrixJSON(5e6, 2.0, 1e7), nil, "abc1234")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].GitSHA != "abc1234" || hist[0].SimCyclesPerSec != 5e6 {
		t.Fatalf("history = %+v", hist)
	}
	var reread struct {
		Trajectory []TrajEntry `json:"trajectory"`
	}
	if err := json.Unmarshal(out, &reread); err != nil {
		t.Fatal(err)
	}
	if len(reread.Trajectory) != 1 {
		t.Fatalf("emitted file carries %d entries, want 1", len(reread.Trajectory))
	}
	// Fresh entries carry the measuring host's identity so cross-machine
	// comparisons are readable as such.
	e := reread.Trajectory[0]
	if e.GoVersion == "" || e.GoMaxProcs <= 0 || e.CPUModel == "" {
		t.Errorf("fresh entry missing host metadata: %+v", e)
	}
}

// TestTrajectoryPreLedgerBaseline: a previous file without a trajectory
// array (the pre-ledger format) seeds the history with its own recorded
// throughput, then the fresh entry follows.
func TestTrajectoryPreLedgerBaseline(t *testing.T) {
	prev := matrixJSON(4.28e6, 5.73, 24_500_000)
	_, hist, err := AppendTrajectory(matrixJSON(10e6, 2.4, 24_500_000), prev, "def5678")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history has %d entries, want 2: %+v", len(hist), hist)
	}
	if hist[0].SimCyclesPerSec != 4.28e6 || !strings.Contains(hist[0].GitSHA, "baseline") {
		t.Errorf("baseline entry = %+v", hist[0])
	}
	if hist[1].GitSHA != "def5678" || hist[1].SimCyclesPerSec != 10e6 {
		t.Errorf("fresh entry = %+v", hist[1])
	}
}

// TestTrajectoryAccumulates: appending twice carries the full history
// forward through the emitted file.
func TestTrajectoryAccumulates(t *testing.T) {
	out1, _, err := AppendTrajectory(matrixJSON(5e6, 2, 1e7), nil, "one")
	if err != nil {
		t.Fatal(err)
	}
	_, hist, err := AppendTrajectory(matrixJSON(6e6, 1.7, 1e7), out1, "two")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].GitSHA != "one" || hist[1].GitSHA != "two" {
		t.Fatalf("history = %+v", hist)
	}
}

func TestTrajectoryCheck(t *testing.T) {
	hist := []TrajEntry{{GitSHA: "a", SimCyclesPerSec: 10e6}}
	if err := CheckTrajectory(hist, 0.30); err != nil {
		t.Errorf("single entry must pass: %v", err)
	}
	hist = append(hist, TrajEntry{GitSHA: "b", SimCyclesPerSec: 7.5e6})
	if err := CheckTrajectory(hist, 0.30); err != nil {
		t.Errorf("25%% drop within a 30%% gate must pass: %v", err)
	}
	hist = append(hist, TrajEntry{GitSHA: "c", SimCyclesPerSec: 5e6})
	if err := CheckTrajectory(hist, 0.30); err == nil {
		t.Error("33% drop must fail the 30% gate")
	}
	// The gate compares against the previous entry only, so a recovery
	// after a (passed) decline is judged against the decline, not the peak.
	hist = append(hist, TrajEntry{GitSHA: "d", SimCyclesPerSec: 4.9e6})
	if err := CheckTrajectory(hist, 0.30); err != nil {
		t.Errorf("flat step after decline must pass: %v", err)
	}
}

// TestTrajectoryCheckMixedHosts: the gate compares the newest entry with
// the latest earlier entry from the same host, skipping entries measured
// elsewhere, even when they are newer.
func TestTrajectoryCheckMixedHosts(t *testing.T) {
	here := TrajEntry{GoVersion: "go1.24.0", GoMaxProcs: 2, Workers: 1, CPUModel: "Xeon"}
	at := func(sha string, cps float64, host TrajEntry) TrajEntry {
		host.GitSHA, host.SimCyclesPerSec = sha, cps
		return host
	}
	fast := here
	fast.CPUModel = "EPYC"
	wide := here
	wide.Workers = 4
	hist := []TrajEntry{
		at("a", 10e6, here),
		at("b", 30e6, fast),
		at("c", 25e6, wide),
		at("d", 9e6, here),
	}
	if base, ok := TrajectoryBaseline(hist); !ok || base.GitSHA != "a" {
		t.Fatalf("baseline = %+v (ok=%v), want entry a", base, ok)
	}
	if err := CheckTrajectory(hist, 0.30); err != nil {
		t.Errorf("10%% drop on the same host must pass despite faster foreign entries: %v", err)
	}
	hist[len(hist)-1].SimCyclesPerSec = 6e6
	if err := CheckTrajectory(hist, 0.30); err == nil {
		t.Error("40% drop against the same-host entry must fail")
	}
}

// TestTrajectoryCheckNoSameHost: with no earlier entry from the newest
// entry's host there is nothing comparable, so the gate passes.
func TestTrajectoryCheckNoSameHost(t *testing.T) {
	hist := []TrajEntry{
		{GitSHA: "(pre-ledger baseline)", SimCyclesPerSec: 40e6},
		{GitSHA: "a", SimCyclesPerSec: 30e6, GoVersion: "go1.22", GoMaxProcs: 8, Workers: 8, CPUModel: "EPYC"},
		{GitSHA: "b", SimCyclesPerSec: 5e6, GoVersion: "go1.24.0", GoMaxProcs: 2, Workers: 1, CPUModel: "Xeon"},
	}
	if base, ok := TrajectoryBaseline(hist); ok {
		t.Fatalf("found baseline %+v on a foreign host", base)
	}
	if err := CheckTrajectory(hist, 0.30); err != nil {
		t.Errorf("no same-host entry must pass: %v", err)
	}
}

// TestTrajectoryRecordsWorkers: the fresh entry carries the matrix's
// worker count, part of the host identity.
func TestTrajectoryRecordsWorkers(t *testing.T) {
	fresh, _ := json.Marshal(map[string]any{"sim_cycles_per_sec": 5e6, "workers": 3})
	_, hist, err := AppendTrajectory(fresh, nil, "w")
	if err != nil {
		t.Fatal(err)
	}
	if hist[0].Workers != 3 {
		t.Errorf("entry workers = %d, want 3", hist[0].Workers)
	}
}

func TestTrajectoryRejectsBadInput(t *testing.T) {
	if _, _, err := AppendTrajectory([]byte("{"), nil, "x"); err == nil {
		t.Error("malformed fresh JSON accepted")
	}
	if _, _, err := AppendTrajectory([]byte(`{"rows":[]}`), nil, "x"); err == nil {
		t.Error("matrix without sim_cycles_per_sec accepted")
	}
	if _, _, err := AppendTrajectory(matrixJSON(1e6, 1, 1), []byte("garbage"), "x"); err == nil {
		t.Error("malformed previous ledger accepted")
	}
}
