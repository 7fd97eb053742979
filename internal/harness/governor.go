package harness

import (
	"fmt"
	"strings"

	"ghostthread/internal/core"
	"ghostthread/internal/gov"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// GovRow is one workload × ghost-kind comparison of the static ghost
// against the same ghost under the adaptive governor (ghostbench
// -experiment governor). Speedups are versus the no-helper baseline, so
// a GovernedSpeedup ≥ 1.0 on a harmful ghost (bfs.kron's compiler
// slice) is the governor doing its job, and GovernedSpeedup ≈
// StaticSpeedup on a healthy ghost is the governor staying out of the
// way.
type GovRow struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind"` // "manual" | "compiler"

	BaselineCycles int64 `json:"baseline_cycles"`
	StaticCycles   int64 `json:"static_cycles"`
	GovernedCycles int64 `json:"governed_cycles"`

	StaticSpeedup   float64 `json:"static_speedup"`
	GovernedSpeedup float64 `json:"governed_speedup"`

	Kills    int64 `json:"kills"`
	Respawns int64 `json:"respawns"`
	Retunes  int64 `json:"retunes"`

	Decisions []gov.Decision `json:"decisions,omitempty"`

	Err string `json:"err,omitempty"`
}

// GovernedConfig returns cfg prepared for a governed run of a workload
// whose sync words are counters: windowed telemetry attached (the
// governor's input) and the default governor (kill + phase respawn)
// enabled, with respawns re-aligning the main iteration counter.
func GovernedConfig(cfg sim.Config, window int64, counters core.Counters) sim.Config {
	cfg.Telemetry.WindowCycles = window
	cfg.Telemetry.GhostCounterAddr = counters.GhostAddr
	g := gov.Default()
	g.MainCounterAddr = counters.MainAddr
	cfg.Governor = g
	return cfg
}

// BuildCompilerGhost profiles workload under cfg (memoized; telemetry
// and governor are stripped first so profiling runs clean),
// selects targets with the default heuristic, builds a fresh instance
// with opts, and extracts the compiler p-slice from its annotated
// baseline. The error reports "no targets" when the heuristic selects
// nothing.
func BuildCompilerGhost(workload string, cfg sim.Config, opts workloads.Options) (*workloads.Instance, *slice.Result, error) {
	build, err := workloads.Lookup(workload)
	if err != nil {
		return nil, nil, err
	}
	pcfg := cfg
	pcfg.Telemetry = sim.TelemetryConfig{}
	pcfg.Governor = gov.Config{}
	rep, err := profileWorkload(workload, build, pcfg)
	if err != nil {
		return nil, nil, err
	}
	targets := core.SelectTargets(rep, core.DefaultHeuristicParams())
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("harness: %s: heuristic selected no targets", workload)
	}
	inst := build(opts)
	ext, err := slice.ExtractWith(inst.Baseline.Main, targets, opts.Sync, inst.Counters,
		slice.Options{AllowUnproved: true})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s: extraction: %w", workload, err)
	}
	return inst, ext, nil
}

// GovernorExperiment runs the static-versus-governed comparison for
// every named workload, producing one row per available ghost kind
// (manual variant, compiler extraction). window is the telemetry window
// W the governor decides on.
func GovernorExperiment(names []string, cfg sim.Config, window int64) []GovRow {
	var rows []GovRow
	for _, name := range names {
		rows = append(rows, governedWorkload(name, cfg, window)...)
	}
	return rows
}

// governedWorkload produces a workload's manual row (when it has a manual
// ghost) and compiler row (when the heuristic selects targets), in that
// order. Both kinds compare against the same baseline run: the governed
// runs need sync tracing (the ghost publishes its iteration counter for
// the lead series), which changes the ghost program, so every run uses
// one traced build and the comparison stays apples-to-apples. Tracing
// never adds or removes the manual ghost, so the traced build answers
// whether there is one. The baseline is simulated and checked once and
// only when some kind yields a row; its error is reported on each row.
func governedWorkload(name string, cfg sim.Config, window int64) []GovRow {
	build, err := workloads.Lookup(name)
	if err != nil {
		return []GovRow{
			{Workload: name, Kind: "manual", Err: err.Error()},
			{Workload: name, Kind: "compiler", Err: err.Error()},
		}
	}
	var targets []core.Target
	rep, profErr := profileWorkload(name, build, cfg)
	if profErr == nil {
		targets = core.SelectTargets(rep, core.DefaultHeuristicParams())
	}

	opts := workloads.DefaultOptions()
	opts.Sync.Trace = true
	inst := build(opts)
	manual, compiler := inst.Ghost != nil, profErr != nil || len(targets) > 0
	if !manual && !compiler {
		return nil
	}
	snap := inst.Mem.Snapshot()
	var base sim.Result
	var baseErr error
	if manual || profErr == nil {
		base, baseErr = runChecked(inst, snap, cfg, inst.Baseline.Main, inst.Baseline.Helpers, inst.CheckFor("baseline"))
	}

	var rows []GovRow
	if manual {
		row := GovRow{Workload: name, Kind: "manual"}
		if baseErr != nil {
			row.Err = "baseline: " + baseErr.Error()
		} else {
			governedManual(&row, inst, snap, cfg, window, base)
		}
		rows = append(rows, row)
	}
	if !compiler {
		return rows
	}
	row := GovRow{Workload: name, Kind: "compiler"}
	switch {
	case profErr != nil:
		row.Err = profErr.Error()
	case baseErr != nil:
		row.Err = "baseline: " + baseErr.Error()
	default:
		// The manual runs are done, so growing the image no longer
		// matters to their snapshot (Restore panics on a size mismatch).
		governedCompiler(&row, inst, snap, opts, targets, cfg, window, base)
	}
	return append(rows, row)
}

// runChecked restores the snapshot, runs main+helpers under cfg, and
// verifies the workload's result.
func runChecked(inst *workloads.Instance, snap []int64, cfg sim.Config,
	main *isa.Program, helpers []*isa.Program, check func(*mem.Memory) error) (sim.Result, error) {
	inst.Mem.Restore(snap)
	res, err := sim.RunProgram(cfg, inst.Mem, main, helpers)
	if err != nil {
		return sim.Result{}, err
	}
	if err := check(inst.Mem); err != nil {
		return sim.Result{}, fmt.Errorf("result check: %w", err)
	}
	return res, nil
}

// governedManual fills row with the workload's hand-written ghost
// variant, static versus governed, against base.
func governedManual(row *GovRow, inst *workloads.Instance, snap []int64, cfg sim.Config, window int64, base sim.Result) {
	static, err := runChecked(inst, snap, cfg, inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		row.Err = "static: " + err.Error()
		return
	}
	gcfg := GovernedConfig(cfg, window, inst.Counters)
	governed, err := runChecked(inst, snap, gcfg, inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		row.Err = "governed: " + err.Error()
		return
	}
	row.fill(base, static, governed)
}

// governedCompiler fills row with the workload's compiler-extracted
// ghost, static versus governed (with the dynamic sync segment, so
// retuning is live too), against base. It restores the pristine image
// from snap and grows it by the governor's two sync words.
func governedCompiler(row *GovRow, inst *workloads.Instance, snap []int64, opts workloads.Options, targets []core.Target, cfg sim.Config, window int64, base sim.Result) {
	// Governor-owned dynamic sync words, appended to the pristine image
	// and seeded with the static thresholds BEFORE the snapshot, so every
	// restore re-arms them.
	inst.Mem.Restore(snap)
	tfAddr := inst.Mem.Grow(2)
	clAddr := tfAddr + 1
	inst.Mem.StoreWord(tfAddr, opts.Sync.TooFar)
	inst.Mem.StoreWord(clAddr, opts.Sync.Close)
	snap = inst.Mem.Snapshot()

	// Static reference: the plain static-immediate sync segment.
	ext, err := slice.ExtractWith(inst.Baseline.Main, targets, opts.Sync, inst.Counters,
		slice.Options{AllowUnproved: true})
	if err != nil {
		row.Err = "extraction: " + err.Error()
		return
	}
	static, err := runChecked(inst, snap, cfg, ext.Main, []*isa.Program{ext.Ghost}, inst.Check)
	if err != nil {
		row.Err = "static: " + err.Error()
		return
	}

	// Governed: re-extract per-phase with the dynamic sync segment
	// reading the governor words, and enable retuning on top of
	// kill/respawn. The per-phase slice is the aggressive variant only a
	// governed run can use: it halts at its region tail and counts on the
	// governor's PC-synced respawn to re-seed it each region iteration —
	// in exchange its target loads are true prefetches instead of the
	// rematerialized demand loads that chain a whole-region slice to the
	// main thread's pace.
	dopts := opts
	dopts.Sync.TooFarAddr = tfAddr
	dopts.Sync.CloseAddr = clAddr
	dext, err := slice.ExtractWith(inst.Baseline.Main, targets, dopts.Sync, inst.Counters,
		slice.Options{AllowUnproved: true, PerPhase: true})
	if err != nil {
		row.Err = "dynamic extraction: " + err.Error()
		return
	}
	gcfg := GovernedConfig(cfg, window, inst.Counters)
	gcfg.Governor.Retune = true
	gcfg.Governor.TooFarAddr = tfAddr
	gcfg.Governor.CloseAddr = clAddr
	gcfg.Governor.TooFarInit = opts.Sync.TooFar
	gcfg.Governor.CloseInit = opts.Sync.Close
	// Compiler slices carry loop-carried live-ins, so respawns must wait
	// for the region-loop header (the only point where main's registers
	// are valid ghost entry state). With PC-synced re-seeds, phase-blind
	// revival is safe to turn on aggressively: the decision only ARMS the
	// trigger, and the trigger fires at the next phase boundary by
	// construction — so workloads whose stall profile is too smooth to
	// trip the phase detector (bfs.kron's uniform per-level shape) still
	// get their per-phase refresh.
	gcfg.Governor.ResyncPC = int64(dext.ResyncPC)
	gcfg.Governor.RevivePeriod = 1
	governed, err := runChecked(inst, snap, gcfg, dext.Main, []*isa.Program{dext.Ghost}, inst.Check)
	if err != nil {
		row.Err = "governed: " + err.Error()
		return
	}
	row.fill(base, static, governed)
}

// RenderGovernor renders the static-versus-governed comparison as a
// table, one row per (workload, ghost kind).
func RenderGovernor(rows []GovRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-9s %12s %12s %12s %8s %8s %6s %6s %6s  %s\n",
		"workload", "kind", "base-cyc", "static-cyc", "governed-cyc",
		"static", "governed", "kills", "resp", "retune", "status")
	for _, r := range rows {
		status := "ok"
		if r.Err != "" {
			status = "ERROR: " + firstLine(r.Err)
		}
		fmt.Fprintf(&b, "%-12s %-9s %12d %12d %12d %8.3f %8.3f %6d %6d %6d  %s\n",
			r.Workload, r.Kind, r.BaselineCycles, r.StaticCycles, r.GovernedCycles,
			r.StaticSpeedup, r.GovernedSpeedup, r.Kills, r.Respawns, r.Retunes, status)
	}
	return b.String()
}

func (r *GovRow) fill(base, static, governed sim.Result) {
	r.BaselineCycles = base.Cycles
	r.StaticCycles = static.Cycles
	r.GovernedCycles = governed.Cycles
	r.StaticSpeedup = float64(base.Cycles) / float64(static.Cycles)
	r.GovernedSpeedup = float64(base.Cycles) / float64(governed.Cycles)
	r.Kills = governed.GovKills
	r.Respawns = governed.GovRespawns
	for _, d := range governed.GovDecisions {
		if d.Action == gov.ActionRetune {
			r.Retunes++
		}
	}
	r.Decisions = governed.GovDecisions
}
