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
// -govern runs the variant under the adaptive governor (internal/gov):
// windowed telemetry feeds the per-core controller, which may kill a
// ghost that stops earning its keep and respawn it at phase boundaries.
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ghostthread/internal/fault"
	"ghostthread/internal/gov"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "camel", "workload name (see -list)")
		variant   = flag.String("variant", "baseline", "baseline | swpf | smt-openmp | ghost")
		scale     = flag.String("scale", "eval", "eval | profile")
		busy      = flag.Bool("busy", false, "add busy-server memory bandwidth pressure")
		faultArg  = flag.String("fault", "", "fault-injection spec, e.g. seed=1,preempt=20000,plen=4000 ('off' or empty = none)")
		window    = flag.Int64("window", 0, "emit a windowed-telemetry sample every N cycles (0 = off; enables sync tracing)")
		windowOut = flag.String("window-out", "-", "write telemetry NDJSON here ('-' = stdout)")
		govern    = flag.Bool("govern", false, "run under the adaptive governor (implies -window 20000 when -window is unset)")
		list      = flag.Bool("list", false, "list available workloads and exit")
	)
	flag.Parse()

	// Flag validation happens before any workload is built: a typo'd
	// -scale must not silently run at eval scale, and like flag-parse
	// errors it exits 2 (distinct from a failed run's 1).
	switch *scale {
	case "eval", "profile":
	default:
		usage(fmt.Errorf("unknown -scale %q (want eval or profile)", *scale))
	}
	if *window < 0 {
		usage(fmt.Errorf("-window must be non-negative, got %d", *window))
	}
	if *govern && *window == 0 {
		*window = 20000
	}

	if *list {
		fmt.Println(strings.Join(workloads.Names(), "\n"))
		return
	}

	build, err := workloads.Lookup(*workload)
	if err != nil {
		fatal(err)
	}
	opts := workloads.DefaultOptions()
	if *scale == "profile" {
		opts = workloads.ProfileOptions()
	}
	if *window > 0 {
		// The ghost publishes its iteration counter only under sync
		// tracing; the lead series needs it. (This changes the ghost
		// program slightly, like gttrace -chrome does.)
		opts.Sync.Trace = true
	}
	inst := build(opts)
	v := inst.VariantByName(*variant)
	if v == nil {
		fatal(fmt.Errorf("workload %s has no %q variant", inst.Name, *variant))
	}

	cfg := sim.DefaultConfig()
	if *busy {
		cfg = sim.BusyConfig()
	}
	fc, err := fault.ParseSpec(*faultArg)
	if err != nil {
		fatal(err)
	}
	cfg.Fault = fc
	if *window > 0 {
		var w io.Writer = os.Stdout
		if *windowOut != "-" {
			f, err := os.Create(*windowOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		// Unbuffered line-at-a-time writes: every flushed window is on
		// disk before the next one runs, so a crash loses at most the
		// in-progress window (resilience-ledger style).
		enc := json.NewEncoder(w)
		cfg.Telemetry.WindowCycles = *window
		cfg.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
		cfg.Telemetry.Sink = func(ws obs.WindowSample) {
			if err := enc.Encode(ws); err != nil {
				fatal(err)
			}
		}
	}
	if *govern {
		g := gov.Default()
		g.MainCounterAddr = inst.Counters.MainAddr
		cfg.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
		cfg.Governor = g
	}
	res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
	if err != nil {
		fatal(err)
	}
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
		boundaries := 0
		for _, ws := range res.Windows {
			if ws.PhaseBoundary {
				boundaries++
			}
		}
		fmt.Printf("telemetry   %d windows (W=%d cycles), %d phase boundaries\n",
			len(res.Windows), *window, boundaries)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gtrun:", err)
	os.Exit(1)
}

// usage reports a flag-validation error with the flag package's own
// exit code (2), keeping "you typed the wrong thing" distinct from "the
// run failed" (1).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "gtrun:", err)
	os.Exit(2)
}
