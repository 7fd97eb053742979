package harness

import (
	"errors"
	"testing"

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
// every line it prefetches must be one main demands. A ghost that issues
// no prefetch is judged on nothing, so the oracle must also have checked
// some: a slice that keeps its targets as demand loads fails here.
func TestShadowCompilerGhostsZeroDivergent(t *testing.T) {
	raceSubset := map[string]bool{
		"camel": true, "hj8": true, "kangaroo": true, "bfs.kron": true, "cc.urand": true,
	}
	for _, e := range workloads.Entries() {
		if raceDetectorOn && !raceSubset[e.Name] {
			continue
		}
		wopts := workloads.ProfileOptions()
		inst := e.Build(wopts)
		base := inst.Baseline.Main
		ext, err := slice.ExtractWith(base, lint.StaticTargets(base), wopts.Sync, inst.Counters,
			slice.Options{AllowUnproved: true})
		if errors.Is(err, slice.ErrUnsliceable) {
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		cfg := sim.DefaultConfig()
		cfg.Shadow.Enabled = true
		res, err := sim.RunProgram(cfg, inst.Mem, ext.Main, []*isa.Program{ext.Ghost})
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if err := inst.Check(inst.Mem); err != nil {
			t.Errorf("%s: result check: %v", e.Name, err)
		}
		if res.Shadow.Divergent != 0 {
			t.Errorf("%s: %d divergent compiler-ghost prefetches (confirmed=%d orphaned=%d)",
				e.Name, res.Shadow.Divergent, res.Shadow.Confirmed, res.Shadow.Orphaned)
		}
		if res.Shadow.Checked() == 0 {
			t.Errorf("%s: shadow oracle judged no compiler-ghost prefetches (vacuous)", e.Name)
		}
	}
}
