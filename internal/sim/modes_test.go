package sim_test

// modes_test.go — the stepping-mode equivalence suite. The simulator has
// one speed path with a reference setting:
//
//   - event-skip fast-forward  vs  sim.Config.CycleStep (per-cycle)
//
// Both must produce a bit-identical sim.Result (and final memory image),
// alone and composed with fault injection and the shadow oracle, on
// single-core and multi-core machines.

import (
	"reflect"
	"testing"

	"ghostthread/internal/fault"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// runMode runs workload/variant (see runSingle) with CycleStep applied on
// top of base.
func runMode(t *testing.T, workload, variant string, base sim.Config, cycleStep bool) (sim.Result, []int64) {
	t.Helper()
	cfg := base
	cfg.CycleStep = cycleStep
	return runSingle(t, workload, variant, cfg)
}

// assertMode compares an event-skip run against the per-cycle reference
// run of the same workload.
func assertMode(t *testing.T, label string, refRes, res sim.Result, refMem, m []int64) {
	t.Helper()
	if !reflect.DeepEqual(refRes, res) {
		t.Errorf("%s: event-skip Result diverged from per-cycle reference\n ref: %+v\n got: %+v", label, refRes, res)
	}
	if !reflect.DeepEqual(refMem, m) {
		t.Errorf("%s: event-skip final memory image diverged from per-cycle reference", label)
	}
}

// TestModeEquivalenceSingleCore proves the stepping modes agree on the
// representative single-core slice.
func TestModeEquivalenceSingleCore(t *testing.T) {
	for _, wl := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
		{"hj8", "ghost"},
	} {
		refRes, refMem := runMode(t, wl.workload, wl.variant, sim.DefaultConfig(), true)
		res, img := runMode(t, wl.workload, wl.variant, sim.DefaultConfig(), false)
		assertMode(t, wl.workload+"/"+wl.variant, refRes, res, refMem, img)
	}
}

// TestModeEquivalenceComposed re-proves the modes with fault injection
// and the shadow oracle enabled at once: event skipping must not perturb
// the fault draw schedule or the oracle's classification.
func TestModeEquivalenceComposed(t *testing.T) {
	base := sim.DefaultConfig()
	base.Fault = combinedSchedule()
	base.Shadow.Enabled = true
	refRes, refMem := runMode(t, "camel", "ghost", base, true)
	if refRes.Fault == (fault.Stats{}) {
		t.Fatal("fault schedule injected nothing; composition proves nothing")
	}
	res, img := runMode(t, "camel", "ghost", base, false)
	assertMode(t, "camel/ghost(faulted+shadowed)", refRes, res, refMem, img)
}

// runMultiMode builds a fresh MultiGhost PageRank machine and runs it
// with CycleStep applied on top of base, returning the Result and the
// memory image.
func runMultiMode(t *testing.T, base sim.Config, cycleStep bool) (sim.Result, []int64) {
	t.Helper()
	inst, err := workloads.NewMulti("pr", "kron", 4, workloads.MultiGhost, workloads.ProfileOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Cores = inst.Cores
	cfg.CycleStep = cycleStep
	s := sim.New(cfg, inst.Mem)
	for c := range inst.Per {
		s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("pr.kron multighost (cycleStep=%v): %v", cycleStep, err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Fatalf("pr.kron multighost (cycleStep=%v): check: %v", cycleStep, err)
	}
	return res, snapshot(inst.Mem)
}

// TestModeEquivalenceMultiGhostPR proves the stepping modes agree on a
// 4-core MultiGhost PageRank run, where the cores interact through the
// shared LLC, memory controller and memory image.
func TestModeEquivalenceMultiGhostPR(t *testing.T) {
	refRes, refMem := runMultiMode(t, sim.DefaultConfig(), true)
	res, img := runMultiMode(t, sim.DefaultConfig(), false)
	assertMode(t, "pr.kron/multighost", refRes, res, refMem, img)
}

// TestModeEquivalenceMultiCoreComposed re-proves the multi-core case
// with fault injection and the shadow oracle live — the strongest
// composition the machine supports: per-core fault schedules, memory
// jitter on the shared controller, and one oracle per core.
func TestModeEquivalenceMultiCoreComposed(t *testing.T) {
	base := sim.DefaultConfig()
	base.Fault = combinedSchedule()
	base.Shadow.Enabled = true
	refRes, refMem := runMultiMode(t, base, true)
	if refRes.Fault == (fault.Stats{}) {
		t.Fatal("fault schedule injected nothing; composition proves nothing")
	}
	res, img := runMultiMode(t, base, false)
	assertMode(t, "pr.kron/multighost(faulted+shadowed)", refRes, res, refMem, img)
}
