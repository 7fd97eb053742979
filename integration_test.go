package ghostthread_test

import (
	"testing"

	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// TestEndToEndPipeline exercises the complete deployment flow on one
// workload at profiling scale: profile → heuristic → manual ghost and
// automatic extraction — both validated.
func TestEndToEndPipeline(t *testing.T) {
	cfg := sim.DefaultConfig()
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}

	// 1. Profile.
	pinst := build(workloads.ProfileOptions())
	rep, err := profile.Run(cfg, pinst.Mem, pinst.Baseline.Main, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Heuristic.
	targets := core.SelectTargets(rep, core.DefaultHeuristicParams())
	if len(targets) == 0 {
		t.Fatal("heuristic selected nothing on camel")
	}
	if d := core.Decide(targets, true, true); d != core.UseGhost {
		t.Fatalf("decision = %s, want ghost", d)
	}

	// 3. Baseline reference time.
	binst := build(workloads.ProfileOptions())
	base, err := sim.RunProgram(cfg, binst.Mem, binst.Baseline.Main, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 4a. The manual ghost must beat the baseline.
	ginst := build(workloads.ProfileOptions())
	ghost, err := sim.RunProgram(cfg, ginst.Mem, ginst.Ghost.Main, ginst.Ghost.Helpers)
	if err != nil {
		t.Fatal(err)
	}
	if err := ginst.Check(ginst.Mem); err != nil {
		t.Fatal(err)
	}
	if ghost.Cycles >= base.Cycles {
		t.Errorf("manual ghost %d cycles >= baseline %d", ghost.Cycles, base.Cycles)
	}
	if ghost.Prefetches == 0 {
		t.Error("manual ghost issued no prefetches")
	}

	// 4b. The compiler-extracted ghost must run correctly and help.
	einst := build(workloads.ProfileOptions())
	ext, err := slice.Extract(einst.Baseline.Main, targets, workloads.ProfileOptions().Sync, einst.Counters)
	if err != nil {
		t.Fatal(err)
	}
	if !isa.ReadOnly(ext.Ghost) {
		t.Fatal("extracted ghost writes memory")
	}
	eres, err := sim.RunProgram(cfg, einst.Mem, ext.Main, []*isa.Program{ext.Ghost})
	if err != nil {
		t.Fatal(err)
	}
	if err := einst.Check(einst.Mem); err != nil {
		t.Fatal(err)
	}
	if eres.Cycles >= base.Cycles {
		t.Errorf("compiler ghost %d cycles >= baseline %d", eres.Cycles, base.Cycles)
	}

}

// TestSerializeThrottleIsObservable ties the mechanism end to end: the
// ghost variant must retire serialize instructions (the throttle) while
// converting the main thread's DRAM loads into cache hits.
func TestSerializeThrottleIsObservable(t *testing.T) {
	inst := workloads.NewCamel(workloads.CamelOriginal, workloads.ProfileOptions())
	res, err := sim.RunProgram(sim.DefaultConfig(), inst.Mem, inst.Ghost.Main, inst.Ghost.Helpers)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Fatal(err)
	}
	if res.Serializes == 0 {
		t.Error("ghost never serialized: the throttle is dead")
	}
	base := workloads.NewCamel(workloads.CamelOriginal, workloads.ProfileOptions())
	bres, err := sim.RunProgram(sim.DefaultConfig(), base.Mem, base.Baseline.Main, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadLevel[3] >= bres.LoadLevel[3] {
		t.Errorf("ghost run has %d DRAM demand loads, baseline %d — prefetching absorbed nothing",
			res.LoadLevel[3], bres.LoadLevel[3])
	}
}
