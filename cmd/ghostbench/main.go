// Command ghostbench regenerates the paper's tables and figures:
//
//	ghostbench -experiment fig3     # motivation: Camel forms (figure 3)
//	ghostbench -experiment table1   # input datasets (table 1)
//	ghostbench -experiment fig6     # idle-server speedups (figure 6)
//	ghostbench -experiment fig7     # idle-server energy savings (figure 7)
//	ghostbench -experiment fig8     # busy-server speedups (figure 8)
//	ghostbench -experiment fig9     # multi-core scaling (figure 9)
//	ghostbench -experiment fig10a   # inter-thread distance, long trace
//	ghostbench -experiment fig10b   # inter-thread distance, short window
//	ghostbench -experiment sweep    # sync hyper-parameter tuning (§4.3.2)
//	ghostbench -experiment resilience  # speedup vs fault intensity
//	ghostbench -experiment advise   # static advice vs measured ghost speedup
//	ghostbench -experiment governor # static vs adaptively-governed ghosts
//
// Use -csv or -json for machine-readable output, -workloads to restrict
// the evaluation set (sweep tunes camel unless -workloads names others),
// and -j N to evaluate N workloads in parallel (default: one worker per
// CPU).
//
// The resilience experiment sweeps each workload's ghost variant through
// the deterministic fault ladder (internal/fault): ghost preemption,
// late spawns, dropped/delayed prefetches, DRAM jitter, stale sync reads,
// and (at the top level) a ghost kill. With -json it emits one NDJSON row
// per (workload, level) cell as it completes, so a killed sweep keeps its
// partial results; -fault-seed reseeds the schedules and -panic-at NAME
// crashes one worker on purpose to exercise the panic-recovery path.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ghostthread/internal/cli"
	"ghostthread/internal/harness"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

const tool = cli.Tool("ghostbench")

func main() {
	var (
		experiment = flag.String("experiment", "fig6", "fig3 | table1 | fig6 | fig7 | fig8 | fig9 | fig10a | fig10b | sweep | resilience | advise | governor | report")
		csv        = flag.Bool("csv", false, "emit CSV instead of a table")
		jsonOut    = flag.Bool("json", false, "emit JSON (fig6/fig8; NDJSON rows for resilience)")
		gnuplot    = flag.Bool("gnuplot", false, "emit a gnuplot script (fig6/fig8)")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		workSet    = flag.String("workloads", "", "comma-separated workload subset (default: the full 34; camel for sweep)")
		jobs       = flag.Int("j", 0, "parallel workload evaluations (0 = GOMAXPROCS)")
		scale      = cli.Scale(flag.CommandLine, workloads.ScaleEval, "workload input scale for -experiment resilience: eval | profile")
		faultSeed  = flag.Uint64("fault-seed", 1, "master seed for the resilience fault schedules")
		budget     = flag.Int64("budget", 0, "per-run cycle-budget watchdog for resilience (0 = machine default)")
		panicAt    = flag.String("panic-at", "", "resilience: panic inside this workload's worker (tests panic recovery)")
		window     = cli.Int(flag.CommandLine, "window", 0, 0, "resilience: emit a windowed-telemetry sample every N cycles (0 = off; enables sync tracing)")
		windowOut  = flag.String("window-out", "", "resilience: write telemetry NDJSON here (tail with gtmon -in FILE; empty = discard)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile (after the experiment) to this file")
		profDir    = flag.String("profile-cache", "", "directory for the on-disk profiling-report cache (empty = in-process memo only)")
	)
	tool.Parse()
	subset, err := cli.Names(*workSet)
	tool.Check(err)
	// names returns the -workloads subset, or def when none was given.
	names := func(def []string) []string {
		if subset == nil {
			return def
		}
		return subset
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		tool.Check(err)
		tool.Check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			tool.Check(f.Close())
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			tool.Check(err)
			runtime.GC()
			tool.Check(pprof.WriteHeapProfile(f))
			tool.Check(f.Close())
		}()
	}
	if *profDir != "" {
		tool.Check(harness.SetProfileCacheDir(*profDir))
	}

	idleCfg, busyCfg := sim.DefaultConfig(), sim.BusyConfig()
	progress := func(w string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s...\n", w)
		}
	}

	switch *experiment {
	case "fig3":
		data, err := harness.Figure3(idleCfg)
		tool.Check(err)
		fmt.Println("Figure 3: speedup over baseline for the three Camel forms")
		fmt.Print(harness.RenderFigure3(data))

	case "table1":
		fmt.Println("Table 1: input datasets for profiling and evaluation")
		fmt.Print(harness.Table1())

	case "fig6", "fig7":
		m, err := harness.RunMatrixWorkers(names(workloads.AllWorkloadNames()), "idle", idleCfg, *jobs, progress)
		tool.Check(err)
		if *experiment == "fig6" {
			switch {
			case *jsonOut:
				out, err := m.JSON()
				tool.Check(err)
				fmt.Print(out)
			case *gnuplot:
				fmt.Print(m.GnuplotScript("fig6", "Figure 6: idle-server speedups"))
			case *csv:
				fmt.Println("Figure 6: single-core speedups on the idle server ('*' = ghost threads selected)")
				fmt.Print(m.CSV())
			default:
				fmt.Println("Figure 6: single-core speedups on the idle server ('*' = ghost threads selected)")
				fmt.Print(m.RenderSpeedups())
			}
		} else {
			fmt.Println("Figure 7: package energy savings on the idle server")
			fmt.Print(m.RenderEnergy())
		}

	case "fig8":
		m, err := harness.RunMatrixWorkers(names(workloads.AllWorkloadNames()), "busy", busyCfg, *jobs, progress)
		tool.Check(err)
		switch {
		case *jsonOut:
			out, err := m.JSON()
			tool.Check(err)
			fmt.Print(out)
		case *gnuplot:
			fmt.Print(m.GnuplotScript("fig8", "Figure 8: busy-server speedups"))
		case *csv:
			fmt.Println("Figure 8: single-core speedups on the busy server (21 GB/s-equivalent pressure)")
			fmt.Print(m.CSV())
		default:
			fmt.Println("Figure 8: single-core speedups on the busy server (21 GB/s-equivalent pressure)")
			fmt.Print(m.RenderSpeedups())
		}

	case "fig9":
		res, err := harness.Figure9(progress)
		tool.Check(err)
		fmt.Println("Figure 9: multi-core scaling (geomean speedup over the parallel baseline)")
		fmt.Print(harness.RenderFigure9(res))

	case "fig10a":
		fmt.Println("Figure 10(a): inter-thread distance on cc.urand, with vs without synchronization")
		with, err := harness.Figure10(true, 20_000, 400)
		tool.Check(err)
		without, err := harness.Figure10(false, 20_000, 400)
		tool.Check(err)
		mi, ma, mean := harness.Fig10Summary(with)
		fmt.Printf("with sync:    min=%d max=%d mean=%.0f over %d samples\n", mi, ma, mean, len(with))
		mi, ma, mean = harness.Fig10Summary(without)
		fmt.Printf("without sync: min=%d max=%d mean=%.0f over %d samples\n", mi, ma, mean, len(without))
		switch {
		case *gnuplot:
			fmt.Print(harness.GnuplotDistance("fig10a", "Figure 10(a): inter-thread distance", with, without))
		case *csv:
			fmt.Println("-- with sync --")
			fmt.Print(harness.RenderFigure10(with))
			fmt.Println("-- without sync --")
			fmt.Print(harness.RenderFigure10(without))
		}

	case "fig10b":
		fmt.Println("Figure 10(b): inter-thread distance with synchronization, fine-grained window")
		with, err := harness.Figure10(true, 2_000, 500)
		tool.Check(err)
		mi, ma, mean := harness.Fig10Summary(with)
		fmt.Printf("with sync: min=%d max=%d mean=%.0f over %d samples\n", mi, ma, mean, len(with))
		if *csv {
			fmt.Print(harness.RenderFigure10(with))
		} else {
			fmt.Print(harness.AsciiPlot(with, 40, 60))
		}

	case "sweep":
		for _, w := range names([]string{"camel"}) {
			pts, err := harness.SweepSync(w, idleCfg)
			tool.Check(err)
			fmt.Print(harness.RenderSweep(w, pts))
		}

	case "resilience":
		// A representative ghost subset by default, not the full 34: the
		// sweep runs every workload once per ladder level.
		rnames := names([]string{"camel", "kangaroo", "hj2", "bfs.kron", "cc.urand"})
		opts := harness.ResilienceOptions{
			Levels:      harness.ResilienceLevels(*faultSeed),
			Workers:     *jobs,
			CycleBudget: *budget,
			InjectPanic: *panicAt,
		}
		opts.BuildOpts = workloads.DefaultOptions()
		opts.BuildOpts.Scale = *scale
		if *window > 0 {
			opts.Window = *window
			// The lead series needs the ghost's published counter, so turn
			// on sync tracing — symmetric across every level and variant,
			// so speedup ratios still compare like with like.
			opts.BuildOpts.Sync.Trace = true
			if *windowOut != "" {
				emit, done := tool.NDJSON(*windowOut)
				defer done()
				opts.WindowSink = func(r obs.MonitorRow) { emit(r) }
			}
		}
		var sink func(harness.ResilienceRow)
		if *jsonOut {
			// A killed sweep keeps every finished row.
			emit, _ := tool.NDJSON("-")
			sink = func(r harness.ResilienceRow) { emit(r) }
		} else if !*quiet {
			sink = func(r harness.ResilienceRow) {
				fmt.Fprintf(os.Stderr, "done %s/%s\n", r.Workload, r.Level)
			}
		}
		rows, err := harness.Resilience(rnames, idleCfg, opts, sink)
		tool.Check(err)
		if !*jsonOut {
			fmt.Println("Resilience: ghost-variant speedup vs deterministic fault intensity")
			fmt.Print(harness.RenderResilience(rows))
		}

	case "advise":
		// Static advice joined against measured ghost speedups, over the
		// whole registry (the advice layer also covers workloads outside
		// the 34-workload evaluation set, such as camel-ghost).
		anames := names(workloads.Names())
		var sink func(harness.AdviseRow)
		if !*quiet && !*jsonOut {
			sink = func(r harness.AdviseRow) {
				fmt.Fprintf(os.Stderr, "done %s\n", r.Workload)
			}
		}
		sum, err := harness.Advise(anames, idleCfg, *jobs, sink)
		tool.Check(err)
		if *jsonOut {
			tool.Check(cli.JSON(sum))
		} else {
			fmt.Println("Advise: static ghost-benefit prediction vs measured ghost speedup")
			fmt.Print(harness.RenderAdvise(sum))
		}

	case "governor":
		// Static ghosts versus the same ghosts under the adaptive
		// governor (internal/gov). The interesting rows: a harmful
		// compiler slice (bfs.kron) recovered to ≥ 1.0×, and healthy
		// ghosts left alone. A missing row means the workload has no
		// ghost of that kind.
		gnames := names([]string{"camel", "hj8", "kangaroo", "bfs.kron", "cc.urand"})
		gw := *window
		if gw == 0 {
			gw = 20000
		}
		rows := harness.GovernorExperiment(gnames, idleCfg, gw)
		if *jsonOut {
			emit, _ := tool.NDJSON("-")
			for _, r := range rows {
				emit(r)
			}
		} else {
			fmt.Println("Governor: static ghosts vs the adaptive governor (speedup over no-helper baseline)")
			fmt.Print(harness.RenderGovernor(rows))
		}

	case "report":
		// The full evaluation as one markdown document (EXPERIMENTS.md's
		// generator). Takes tens of minutes.
		doc, err := harness.Report(func(s string) {
			if !*quiet {
				fmt.Fprintln(os.Stderr, s)
			}
		})
		tool.Check(err)
		fmt.Print(doc)

	default:
		tool.Check(cli.Usagef("unknown -experiment %q", *experiment))
	}
}
