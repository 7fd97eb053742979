package harness

import (
	"errors"
	"testing"

	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/lint"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// TestShadowCompilerGhostsZeroDivergent is the dynamic cross-check of
// the compiler slices' translation-validation verdicts, as
// TestShadowRegistryZeroDivergent (internal/sim) is for the hand-written
// ghosts: every extractable whole-region compiler ghost (profile scale,
// static targets, event-skip stepping) runs under the shadow oracle, and
// every line it prefetches must be one main demands. So does every ghost
// whose profile-selected targets spawn it below the outermost loop
// (core.SelectTargets), the slice the harness actually runs for those
// rows. A ghost that issues no prefetch is judged on nothing, so the
// oracle must also have checked some: a slice that keeps its targets as
// demand loads fails here.
func TestShadowCompilerGhostsZeroDivergent(t *testing.T) {
	raceSubset := map[string]bool{
		"camel": true, "hj8": true, "kangaroo": true, "bfs.kron": true, "cc.urand": true,
	}
	moved := 0
	for _, e := range workloads.Entries() {
		if raceDetectorOn && !raceSubset[e.Name] {
			continue
		}
		wopts := workloads.ProfileOptions()
		inst := e.Build(wopts)
		base := inst.Baseline.Main
		shadowCompiler(t, e.Name+"/static", inst, lint.StaticTargets(base))

		rep, err := profileWorkload(e.Name, e.Build, sim.DefaultConfig())
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if targets := core.SelectTargets(rep, core.DefaultHeuristicParams()); len(targets) > 0 && targets[0].SpawnDepth > 0 {
			moved++
			shadowCompiler(t, e.Name+"/selected", e.Build(wopts), targets)
		}
	}
	if moved == 0 {
		t.Error("no profile-selected target moved its spawn region (vacuous)")
	}
}

// shadowCompiler extracts inst's whole-region compiler ghost for targets
// and runs it under the shadow oracle, which must find no divergent
// prefetch and judge at least one.
func shadowCompiler(t *testing.T, name string, inst *workloads.Instance, targets []core.Target) {
	t.Helper()
	ext, err := slice.ExtractWith(inst.Baseline.Main, targets, workloads.ProfileOptions().Sync, inst.Counters,
		slice.Options{AllowUnproved: true})
	if errors.Is(err, slice.ErrUnsliceable) {
		return
	}
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	cfg := sim.DefaultConfig()
	cfg.Shadow.Enabled = true
	res, err := sim.RunProgram(cfg, inst.Mem, ext.Main, []*isa.Program{ext.Ghost})
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Errorf("%s: result check: %v", name, err)
	}
	if res.Shadow.Divergent != 0 {
		t.Errorf("%s: %d divergent compiler-ghost prefetches (confirmed=%d orphaned=%d)",
			name, res.Shadow.Divergent, res.Shadow.Confirmed, res.Shadow.Orphaned)
	}
	if res.Shadow.Checked() == 0 {
		t.Errorf("%s: shadow oracle judged no compiler-ghost prefetches (vacuous)", name)
	}
}
