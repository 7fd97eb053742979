// Command gtrun runs one workload × technique variant on the simulated
// machine and prints cycle counts, cache behaviour, and the correctness
// check — the smallest way to poke at the system:
//
//	gtrun -workload camel -variant ghost
//	gtrun -workload hj8 -variant swpf -busy
//	gtrun -workload bfs.kron -variant baseline -scale profile
//	gtrun -workload camel -variant ghost -fault seed=7,preempt=20000,plen=4000
//	gtrun -workload camel -variant ghost -govern -window 20000
//
// Four mode flags replace the run, and at most one may be given:
//
//	gtrun -list                                      # workload names
//	gtrun -workload bfs.kron -scale profile -profile # profile + heuristic decision
//	gtrun -workload camel -variant ghost -dump       # main + helpers as assembly
//	gtrun -asm prog.s [-interp] [-mem N]             # assemble and run a file
//
// -profile is the reproduction's OptiWISE stand-in: it profiles the
// workload's baseline and prints per-instruction CPI, loop metrics, the
// target loads the Ghost Threading heuristic selects (paper §4.1) and
// its ghost / smt-openmp / none decision. -dump prints programs in the
// textual assembly format (isa.Dump), which round-trips through -asm:
// the first program is the main, the rest are helpers, and -interp runs
// them on the functional interpreter instead of the simulated machine.
//
// -govern runs the variant under the adaptive governor (internal/gov):
// windowed telemetry feeds the per-core controller, which kills a ghost
// that stops earning its keep (gov.Default: a killed ghost stays dead).
// The decision log is printed after the run (and is bit-identical across
// stepping modes and replays).
//
// -fault injects a deterministic fault schedule (see internal/fault):
// ghost preemption windows (preempt/plen), a one-shot ghost kill (kill),
// late spawns (spawndelay), dropped/delayed prefetches (droppf,
// delaypf/delaymax), DRAM jitter (jitter), and stale sync reads
// (stale/stalelag). Faults perturb timing only — the result check must
// still pass under any schedule.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ghostthread/internal/cli"
	"ghostthread/internal/core"
	"ghostthread/internal/fault"
	"ghostthread/internal/gov"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/obs"
	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

const tool = cli.Tool("gtrun")

func main() {
	var (
		workload  = flag.String("workload", "camel", "workload name (see -list)")
		variant   = flag.String("variant", "baseline", "baseline | swpf | smt-openmp | ghost")
		scale     = cli.Scale(flag.CommandLine, workloads.ScaleEval, "workload input scale: eval | profile")
		busy      = flag.Bool("busy", false, "add busy-server memory bandwidth pressure")
		faultArg  = flag.String("fault", "", "fault-injection spec, e.g. seed=1,preempt=20000,plen=4000 ('off' or empty = none)")
		window    = cli.Int(flag.CommandLine, "window", 0, 0, "emit a windowed-telemetry sample every N cycles (0 = off; enables sync tracing)")
		windowOut = flag.String("window-out", "-", "write telemetry NDJSON here ('-' = stdout)")
		govern    = flag.Bool("govern", false, "run under the adaptive governor (implies -window 20000 when -window is unset)")
		list      = flag.Bool("list", false, "mode: list available workloads")
		prof      = flag.Bool("profile", false, "mode: profile the baseline and print the heuristic's target selection and decision")
		dump      = flag.Bool("dump", false, "mode: print the variant's main and helper programs as assembly")
		asmFile   = flag.String("asm", "", "mode: assemble this file (main program first, then helpers) and run it")
		interp    = flag.Bool("interp", false, "with -asm: run on the functional interpreter instead of the simulated machine")
		memWords  = cli.Int(flag.CommandLine, "mem", 1<<20, 1, "with -asm: memory size in words")
	)
	tool.Parse()
	mode, err := cli.OneMode(map[string]bool{"list": *list, "profile": *prof, "dump": *dump, "asm": *asmFile != ""})
	tool.Check(err)
	if mode != "" && (*window > 0 || *govern) {
		tool.Check(cli.Usagef("-window and -govern apply to a simulation run, not to -%s", mode))
	}
	if *interp && mode != "asm" {
		tool.Check(cli.Usagef("-interp needs -asm"))
	}
	cfg := sim.DefaultConfig()
	if *busy {
		cfg = sim.BusyConfig()
	}
	if cfg.Fault, err = fault.ParseSpec(*faultArg); err != nil {
		tool.Check(cli.Usagef("-fault: %v", err))
	}

	switch mode {
	case "list":
		fmt.Println(strings.Join(workloads.Names(), "\n"))
		return
	case "asm":
		tool.Check(runAsm(cfg, *asmFile, *memWords, *interp))
		return
	}

	build, err := cli.Lookup(*workload, *variant)
	tool.Check(err)
	if *govern && *window == 0 {
		*window = 20000
	}
	opts := workloads.DefaultOptions()
	opts.Scale = *scale
	if *window > 0 {
		// The ghost publishes its iteration counter only under sync
		// tracing; the lead series needs it. (This changes the ghost
		// program slightly, like gttrace -chrome does.)
		opts.Sync.Trace = true
	}
	inst := build(opts)
	if mode == "profile" {
		tool.Check(profileBaseline(cfg, inst))
		return
	}
	v, err := cli.Variant(inst, *variant)
	tool.Check(err)
	if mode == "dump" {
		fmt.Print(isa.Dump(v.Main))
		for _, h := range v.Helpers {
			fmt.Println()
			fmt.Print(isa.Dump(h))
		}
		return
	}

	var samples int
	if *window > 0 {
		emit, done := tool.NDJSON(*windowOut)
		defer done()
		cfg.Telemetry.WindowCycles = *window
		cfg.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
		cfg.Telemetry.Sink = func(ws obs.WindowSample) {
			samples++
			emit(ws)
		}
	}
	if *govern {
		g := gov.Default()
		g.MainCounterAddr = inst.Counters.MainAddr
		cfg.Governor = g
	}
	res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
	tool.Check(err)
	status := "ok"
	if err := inst.Check(inst.Mem); err != nil {
		status = "FAILED: " + err.Error()
	}

	fmt.Printf("workload    %s (%s scale)\n", inst.Name, *scale)
	fmt.Printf("variant     %s\n", *variant)
	fmt.Printf("cycles      %d\n", res.Cycles)
	fmt.Printf("committed   %d (ipc %.2f, main-thread %d)\n",
		res.Committed, float64(res.Committed)/float64(res.Cycles), res.MainCommitted)
	fmt.Printf("loads       L1 %d | L2 %d | LLC %d | DRAM %d\n",
		res.LoadLevel[0], res.LoadLevel[1], res.LoadLevel[2], res.LoadLevel[3])
	fmt.Printf("prefetches  %d (L1 %d | L2 %d | LLC %d | DRAM %d)\n", res.Prefetches,
		res.PrefetchLevel[0], res.PrefetchLevel[1], res.PrefetchLevel[2], res.PrefetchLevel[3])
	if q := res.Prefetch; q.Issued+q.Redundant > 0 {
		fmt.Printf("pf quality  accuracy %.2f | coverage %.2f | timeliness %.2f (timely %d, late %d, evicted %d, unused %d, redundant %d)\n",
			res.PrefetchAccuracy(), res.PrefetchCoverage(), res.PrefetchTimeliness(),
			q.Timely, q.Late, q.Evicted, q.Unused(), q.Redundant)
	}
	fmt.Printf("serializes  %d (stall %d cycles)   spawns %d   dram-lines %d\n",
		res.Serializes, res.SerializeStall, res.Spawns, res.DRAMTransfers)
	if *window > 0 {
		fmt.Printf("telemetry   %d windows (W=%d cycles)\n", samples, *window)
	}
	if *govern {
		fmt.Printf("governor    %d decisions (kills %d, respawns %d)\n",
			len(res.GovDecisions), res.GovKills, res.GovRespawns)
		for _, d := range res.GovDecisions {
			fmt.Printf("  w%-5d c%-9d core%d %-8s %s\n", d.Window, d.Cycle, d.Core, d.Action, d.Reason)
		}
	}
	if cfg.Fault.Enabled() {
		f := res.Fault
		fmt.Printf("faults      %s\n", cfg.Fault)
		fmt.Printf("  injected  preempt %d (%d cycles) | kills %d | spawn-delay %d cycles | pf dropped %d delayed %d | stale reads %d\n",
			f.Preemptions, f.PreemptedCycles, f.Kills, f.SpawnDelayCycles,
			f.DroppedPrefetches, f.DelayedPrefetches, f.StaleReads)
	}
	fmt.Printf("check       %s\n", status)
	if status != "ok" {
		os.Exit(1)
	}
}

// profileBaseline profiles inst's baseline and prints the report, the
// heuristic's target selection and the ghost / smt-openmp / none
// decision.
func profileBaseline(cfg sim.Config, inst *workloads.Instance) error {
	rep, err := profile.Run(cfg, inst.Mem, inst.Baseline.Main, nil)
	if err != nil {
		return err
	}
	if err := inst.Check(inst.Mem); err != nil {
		return fmt.Errorf("profiling run corrupted results: %w", err)
	}
	fmt.Print(rep.String())
	targets := core.SelectTargets(rep, core.DefaultHeuristicParams())
	fmt.Println("heuristic selection:")
	fmt.Print(core.DescribeTargets(rep, targets))
	fmt.Printf("decision: %s\n", core.Decide(targets, inst.Ghost != nil, inst.Parallel != nil))
	return nil
}

// runAsm assembles path and runs it on memWords words of zeroed memory,
// on the simulated machine or, with interp, the functional interpreter.
func runAsm(cfg sim.Config, path string, memWords int64, interp bool) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	progs, err := isa.ParseAll(string(text))
	if err != nil {
		return err
	}
	m := mem.New(memWords)
	main, helpers := progs[0], progs[1:]
	if interp {
		res, err := isa.Interp(main, m, helpers, 1<<40)
		if err != nil {
			return err
		}
		fmt.Printf("steps=%d serializes=%d prefetches=%d halted=%v\n",
			res.Steps, res.Serializes, res.Prefetches, res.Halted)
		return nil
	}
	res, err := sim.RunProgram(cfg, m, main, helpers)
	if err != nil {
		return err
	}
	fmt.Printf("cycles=%d committed=%d ipc=%.2f serializes=%d prefetches=%d\n",
		res.Cycles, res.Committed, float64(res.Committed)/float64(res.Cycles),
		res.Serializes, res.Prefetches)
	return nil
}
