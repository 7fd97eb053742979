// Automatic transformation walkthrough: profile an unannotated kernel,
// let the heuristic pick its target loads, run the automatic ghost
// extraction (internal/slice, the paper's §4.4 pass) on them, and compare
// the extracted ghost against the baseline and the hand-written ghost.
//
//	go run ./examples/autopasses
package main

import (
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

func main() {
	const workload = "camel"
	build, err := workloads.Lookup(workload)
	must(err)
	cfg := sim.DefaultConfig()

	// Profile once to find the targets (the annotation a programmer
	// would write, discovered automatically).
	pinst := build(workloads.ProfileOptions())
	rep, err := profile.Run(cfg, pinst.Mem, pinst.Baseline.Main, nil)
	must(err)
	targets := core.SelectTargets(rep, core.DefaultHeuristicParams())
	fmt.Printf("heuristic selected %d target load(s) in %s:\n%s\n",
		len(targets), workload, core.DescribeTargets(rep, targets))

	// Baseline.
	inst := build(workloads.DefaultOptions())
	base, err := sim.RunProgram(cfg, inst.Mem, inst.Baseline.Main, nil)
	must(err)
	must(inst.Check(inst.Mem))
	fmt.Printf("%-28s %9d cycles\n", "baseline", base.Cycles)

	// Automatic ghost extraction on the baseline.
	inst2 := build(workloads.DefaultOptions())
	ext, err := slice.Extract(inst2.Baseline.Main, targets, workloads.DefaultOptions().Sync, inst2.Counters)
	must(err)
	fmt.Printf("slice pass kept %d / dropped %d region instructions\n", ext.Kept, ext.Dropped)
	res, err := sim.RunProgram(cfg, inst2.Mem, ext.Main, []*isa.Program{ext.Ghost})
	must(err)
	must(inst2.Check(inst2.Mem))
	fmt.Printf("%-28s %9d cycles  (%.2fx)\n", "compiler-extracted ghost", res.Cycles,
		float64(base.Cycles)/float64(res.Cycles))

	// The hand-written ghost, for reference (the paper's manual flow).
	inst3 := build(workloads.DefaultOptions())
	res, err = sim.RunProgram(cfg, inst3.Mem, inst3.Ghost.Main, inst3.Ghost.Helpers)
	must(err)
	must(inst3.Check(inst3.Mem))
	fmt.Printf("%-28s %9d cycles  (%.2fx)\n", "hand-written ghost", res.Cycles,
		float64(base.Cycles)/float64(res.Cycles))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
