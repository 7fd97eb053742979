package harness

import (
	"reflect"
	"strings"
	"testing"

	"ghostthread/internal/core"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

var parallelNames = []string{"camel", "nas-is", "hj2"}

// TestRunMatrixWorkersMatchesSerial proves the parallel harness is
// bit-identical to the serial path: same rows, same order, regardless of
// worker count.
func TestRunMatrixWorkersMatchesSerial(t *testing.T) {
	serial, err := RunMatrixWorkers(parallelNames, "idle", sim.DefaultConfig(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMatrixWorkers(parallelNames, "idle", sim.DefaultConfig(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if !reflect.DeepEqual(serial.Rows[i], par.Rows[i]) {
			t.Errorf("row %d differs between 1 and 4 workers\nserial: %+v\n   par: %+v",
				i, serial.Rows[i], par.Rows[i])
		}
	}
	if serial.SimCycles == 0 || serial.SimCycles != par.SimCycles {
		t.Errorf("SimCycles differ: serial %d, parallel %d", serial.SimCycles, par.SimCycles)
	}
}

// TestProfileMemoization checks that repeated matrix runs under the same
// machine configuration profile each workload exactly once process-wide.
func TestProfileMemoization(t *testing.T) {
	// A config unique to this test, so earlier tests' cache entries
	// cannot mask missing profiling work.
	cfg := sim.DefaultConfig()
	cfg.MaxCycles--
	names := []string{"camel", "hj2"}

	before := profileRuns.Load()
	if _, err := RunMatrixWorkers(names, "idle", cfg, 2, nil); err != nil {
		t.Fatal(err)
	}
	first := profileRuns.Load() - before
	if first != int64(len(names)) {
		t.Errorf("first matrix ran %d profiles, want %d", first, len(names))
	}
	if _, err := RunMatrixWorkers(names, "idle", cfg, 2, nil); err != nil {
		t.Fatal(err)
	}
	if again := profileRuns.Load() - before - first; again != 0 {
		t.Errorf("second matrix re-ran %d profiles, want 0 (memoized)", again)
	}
}

// TestProfileIgnoresShadow: profiling strips the shadow oracle, so a
// shadowed and an unshadowed caller share one profiling run and one
// report — and that report equals a profile taken with the oracle
// attached, since the oracle only observes.
func TestProfileIgnoresShadow(t *testing.T) {
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}
	// A config unique to this test, so earlier tests' cache entries
	// cannot stand in for the run counted here.
	cfg := sim.DefaultConfig()
	cfg.MaxCycles -= 2

	before := profileRuns.Load()
	on := cfg
	on.Shadow.Enabled = true
	withShadow, err := profileWorkload("camel", build, on)
	if err != nil {
		t.Fatal(err)
	}
	without, err := profileWorkload("camel", build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := profileRuns.Load() - before; got != 1 {
		t.Errorf("shadow on then off ran %d profiles, want 1", got)
	}
	if !reflect.DeepEqual(withShadow, without) {
		t.Error("shadowed and unshadowed profiling returned different reports")
	}
	shadowed, err := runProfile("camel", build, on)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shadowed, without) {
		t.Error("a profile taken with the shadow oracle attached differs from the memoized one")
	}
}

// TestProfileMemoizationBypassedWithTelemetry: a telemetry Sink makes
// profiling runs observable side-effect machines, so they must never be
// cached.
func TestProfileMemoizationBypassedWithTelemetry(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Telemetry.WindowCycles = 1 << 20
	cfg.Telemetry.Sink = func(obs.WindowSample) {}

	before := profileRuns.Load()
	for i := 0; i < 2; i++ {
		if _, err := Eval("camel", cfg, core.DefaultHeuristicParams()); err != nil {
			t.Fatal(err)
		}
	}
	if got := profileRuns.Load() - before; got != 2 {
		t.Errorf("telemetry runs profiled %d times, want 2 (no caching)", got)
	}
}

// TestMatrixJSONThroughputFields checks the -json plumbing: the
// matrix's and every row's simulated cycles appear in the output, the
// matrix total as the last field (so the results golden's line filter
// leaves the field before it, comma included, unchanged), and no host
// field (worker count, wall time) does.
func TestMatrixJSONThroughputFields(t *testing.T) {
	m, err := RunMatrixWorkers([]string{"camel"}, "idle", sim.DefaultConfig(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	js, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"simulated_cycles"`, `"sim_cycles"`} {
		if !strings.Contains(js, field) {
			t.Errorf("JSON output missing %s:\n%s", field, js)
		}
	}
	for _, field := range []string{`"workers"`, `"wall_seconds"`, `"sim_cycles_per_sec"`} {
		if strings.Contains(js, field) {
			t.Errorf("JSON output still carries host field %s", field)
		}
	}
	lines := strings.Split(strings.TrimSpace(js), "\n")
	if last := lines[len(lines)-2]; !strings.HasPrefix(strings.TrimSpace(last), `"simulated_cycles":`) {
		t.Errorf("last JSON field = %s, want simulated_cycles", last)
	}
	if m.SimCycles <= 0 {
		t.Errorf("simulated cycles not recorded: %d", m.SimCycles)
	}
}
