package harness

import (
	"testing"

	"ghostthread/internal/fault"
	"ghostthread/internal/gov"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// govWindow is the telemetry window the governor suites decide on —
// the same W the metrics smoke uses.
const govWindow = 20000

// TestGovernedBfsKronCompilerRecovers is the governor's headline
// regression test: bfs.kron's static compiler ghost, spawned once per
// level, still runs slower than no helper (the regression
// EXPERIMENTS.md dissects). The governed per-phase ghost must catch its
// degraded tail mid-run — kill the wasted ghost, re-spawn it with fresh
// registers after RevivePeriod — and recover the run to at least
// no-helper performance.
func TestGovernedBfsKronCompilerRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("eval-scale simulation")
	}
	rows := GovernorExperiment([]string{"bfs.kron"}, sim.DefaultConfig(), govWindow)
	row := findGovRow(t, rows, "bfs.kron", "compiler")
	if row.Err != "" {
		t.Fatalf("bfs.kron compiler governed run failed: %s", row.Err)
	}
	if row.StaticSpeedup >= 1.0 {
		t.Errorf("static compiler ghost speedup %.3f — the regression this suite "+
			"guards (static < 1.0) has vanished; re-evaluate the governor fixture",
			row.StaticSpeedup)
	}
	if row.GovernedSpeedup < 1.0 {
		t.Errorf("governed bfs.kron compiler ghost speedup %.3f, want >= 1.0 "+
			"(baseline %d cycles, governed %d)", row.GovernedSpeedup,
			row.BaselineCycles, row.GovernedCycles)
	}
	if row.Kills == 0 {
		t.Errorf("governor never killed the stale compiler ghost (decisions: %+v)", row.Decisions)
	}
}

// TestGovernedHealthyGhostsUnharmed pins the other half of the
// contract: on workloads whose ghosts genuinely help, the governed run
// must stay within 2% of the static-sync ghost — the governor watches
// but does not meddle. camel's compiler row comes from the same
// experiment call as its manual row.
func TestGovernedHealthyGhostsUnharmed(t *testing.T) {
	if testing.Short() {
		t.Skip("eval-scale simulation")
	}
	for _, c := range []struct {
		workload string
		kinds    []string
	}{
		{"camel", []string{"manual", "compiler"}},
		{"hj8", []string{"manual"}},
		{"bfs.kron", []string{"manual"}},
	} {
		rows := GovernorExperiment([]string{c.workload}, sim.DefaultConfig(), govWindow)
		for _, kind := range c.kinds {
			row := findGovRow(t, rows, c.workload, kind)
			if row.Err != "" {
				t.Errorf("%s %s: governed run failed: %s", c.workload, kind, row.Err)
				continue
			}
			if row.StaticSpeedup <= 1.0 {
				t.Errorf("%s %s: static ghost speedup %.3f — fixture no longer healthy",
					c.workload, kind, row.StaticSpeedup)
			}
			if ratio := row.GovernedSpeedup / row.StaticSpeedup; ratio < 0.98 {
				t.Errorf("%s %s: governed/static speedup ratio %.4f, want >= 0.98 "+
					"(static %.3f, governed %.3f, kills %d respawns %d)",
					c.workload, kind, ratio, row.StaticSpeedup, row.GovernedSpeedup, row.Kills, row.Respawns)
			}
		}
	}
}

// TestGovernorDecisionDeterminism asserts the governed decision log —
// and the governed cycle count — are bit-identical across the stepping
// modes (CycleStep on and off) and across a straight replay,
// for a workload where the governor actually acts (bfs.kron compiler).
func TestGovernorDecisionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("eval-scale simulation")
	}
	type mode struct {
		name      string
		cycleStep bool
	}
	base := sim.DefaultConfig()
	var ref []gov.Decision
	var refCycles int64
	for i, m := range []mode{
		{"event-skip", false},
		{"event-skip-replay", false},
		{"cycle-step", true},
	} {
		cfg := base
		cfg.CycleStep = m.cycleStep
		rows := GovernorExperiment([]string{"bfs.kron"}, cfg, govWindow)
		row := findGovRow(t, rows, "bfs.kron", "compiler")
		if row.Err != "" {
			t.Fatalf("%s: %s", m.name, row.Err)
		}
		if i == 0 {
			ref, refCycles = row.Decisions, row.GovernedCycles
			if len(ref) == 0 {
				t.Fatal("governor made no decisions; the determinism check is vacuous")
			}
			continue
		}
		if row.GovernedCycles != refCycles {
			t.Errorf("%s: governed cycles %d, want %d", m.name, row.GovernedCycles, refCycles)
		}
		if len(row.Decisions) != len(ref) {
			t.Fatalf("%s: %d decisions, want %d", m.name, len(row.Decisions), len(ref))
		}
		for j := range ref {
			if row.Decisions[j] != ref[j] {
				t.Errorf("%s: decision %d = %+v, want %+v", m.name, j, row.Decisions[j], ref[j])
			}
		}
	}
}

// TestGovernorObserverPurity: a governor that makes no decisions must
// not perturb the run — the governed Result is bit-identical (cycles,
// commits, cache traffic) to the same run with the governor disabled.
// camel's manual ghost is the fixture: healthy, so the default governor
// stays silent for the whole run.
func TestGovernorObserverPurity(t *testing.T) {
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}
	opts := workloads.DefaultOptions()
	opts.Sync.Trace = true
	inst := build(opts)
	snap := inst.Mem.Snapshot()

	off := sim.DefaultConfig()
	off.Telemetry.WindowCycles = govWindow
	off.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
	on := GovernedConfig(sim.DefaultConfig(), govWindow, inst.Counters)

	resOff, err := runChecked(inst, snap, off, inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := runChecked(inst, snap, on, inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resOn.GovDecisions) != 0 {
		t.Fatalf("governor decided %+v on healthy camel; the purity check is vacuous", resOn.GovDecisions)
	}
	if resOn.Cycles != resOff.Cycles || resOn.Committed != resOff.Committed ||
		resOn.Prefetches != resOff.Prefetches || resOn.Serializes != resOff.Serializes ||
		resOn.DRAMTransfers != resOff.DRAMTransfers {
		t.Errorf("governed-but-silent run diverged from ungoverned: cycles %d vs %d, committed %d vs %d",
			resOn.Cycles, resOff.Cycles, resOn.Committed, resOff.Committed)
	}
}

// TestGovernorDeterminismUnderFaults composes the governor with a
// deterministic fault schedule: the governed decision log and cycle
// count must still be bit-identical across the stepping-mode matrix.
func TestGovernorDeterminismUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("eval-scale simulation")
	}
	fc, err := fault.ParseSpec("seed=7,preempt=60000,plen=4000,jitter=3")
	if err != nil {
		t.Fatal(err)
	}
	var ref []gov.Decision
	var refCycles int64
	for i, cycleStep := range []bool{false, true} {
		cfg := sim.DefaultConfig()
		cfg.CycleStep = cycleStep
		cfg.Fault = fc
		rows := GovernorExperiment([]string{"bfs.kron"}, cfg, govWindow)
		row := findGovRow(t, rows, "bfs.kron", "compiler")
		if row.Err != "" {
			t.Fatalf("cyclestep=%v: %s", cycleStep, row.Err)
		}
		if i == 0 {
			ref, refCycles = row.Decisions, row.GovernedCycles
			continue
		}
		if row.GovernedCycles != refCycles {
			t.Errorf("cyclestep=%v: governed cycles %d, want %d", cycleStep, row.GovernedCycles, refCycles)
		}
		if len(row.Decisions) != len(ref) {
			t.Fatalf("cyclestep=%v: %d decisions, want %d", cycleStep, len(row.Decisions), len(ref))
		}
		for j := range ref {
			if row.Decisions[j] != ref[j] {
				t.Errorf("cyclestep=%v: decision %d = %+v, want %+v", cycleStep, j, row.Decisions[j], ref[j])
			}
		}
	}
}

func findGovRow(t *testing.T, rows []GovRow, workload, kind string) GovRow {
	t.Helper()
	for _, r := range rows {
		if r.Workload == workload && r.Kind == kind {
			return r
		}
	}
	t.Fatalf("no %s/%s row in %+v", workload, kind, rows)
	return GovRow{}
}

// TestSyncTraceKeepsGhostPresence backs governedManual's single build:
// sync tracing changes the manual ghost's code but never whether a
// workload has one, so the traced build alone decides the manual row.
func TestSyncTraceKeepsGhostPresence(t *testing.T) {
	for _, e := range workloads.Entries() {
		opts := workloads.ProfileOptions()
		plain := e.Build(opts).Ghost != nil
		opts.Sync.Trace = true
		if traced := e.Build(opts).Ghost != nil; traced != plain {
			t.Errorf("%s: manual ghost present %v untraced, %v traced", e.Name, plain, traced)
		}
	}
}

// TestGovernorExperimentOneBaselinePerWorkload checks that a workload's
// manual and compiler rows share one baseline simulation, and that a
// silent governed manual run doubles as the static run. With telemetry
// on the experiment's config every run emits windows, so the sink counts
// run starts. camel yields both kinds: the profiling run (telemetry
// bypasses the profile memo), one baseline, the manual governed run
// (silent, so it is also static), and the compiler's static and governed
// runs make 5; a baseline per kind would make 6. On hj8 the idle
// governor kills the manual ghost twice, so its static run is simulated
// too and the count is 6.
func TestGovernorExperimentOneBaselinePerWorkload(t *testing.T) {
	for _, tc := range []struct {
		workload string
		want     int
	}{
		{"camel", 5},
		{"hj8", 6},
	} {
		cfg := sim.DefaultConfig()
		cfg.Telemetry.WindowCycles = govWindow
		runs := 0
		cfg.Telemetry.Sink = func(ws obs.WindowSample) {
			if ws.Window == 0 && ws.Core == 0 {
				runs++
			}
		}
		rows := GovernorExperiment([]string{tc.workload}, cfg, govWindow)
		manual := findGovRow(t, rows, tc.workload, "manual")
		compiler := findGovRow(t, rows, tc.workload, "compiler")
		if manual.Err != "" || compiler.Err != "" {
			t.Fatalf("%s rows failed: manual %q, compiler %q", tc.workload, manual.Err, compiler.Err)
		}
		if manual.BaselineCycles != compiler.BaselineCycles {
			t.Errorf("%s: baseline cycles differ: manual %d, compiler %d",
				tc.workload, manual.BaselineCycles, compiler.BaselineCycles)
		}
		if runs != tc.want {
			t.Errorf("%s: %d simulations, want %d (manual kills %d, decisions %d)",
				tc.workload, runs, tc.want, manual.Kills, len(manual.Decisions))
		}
	}
}
