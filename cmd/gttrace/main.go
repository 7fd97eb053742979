// Command gttrace observes a workload run: it samples pipeline occupancy
// at every telemetry window boundary into a text/CSV timeline (the
// dynamics behind the paper's figure 2 and figure 10), exports a
// structured event trace as Chrome trace-event JSON for Perfetto (with
// the windowed telemetry, ghost lead included, as counter tracks), and
// renders a folded-stacks per-PC cycle attribution for flamegraph tools.
// Per-window histograms of the ghost lead, serialize stalls and MSHR
// occupancy come from `gtrun -window N -window-out FILE`.
//
//	gttrace -workload camel -variant ghost
//	gttrace -workload bfs.urand -variant baseline -window 2000 -csv
//	gttrace -workload camel -variant ghost -chrome out.json -window 20000   # open in ui.perfetto.dev
//	gttrace -workload camel -variant ghost -folded stacks.txt
//	gttrace -validate out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ghostthread/internal/cli"
	"ghostthread/internal/cpu"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

const tool = cli.Tool("gttrace")

func main() {
	var (
		workload = flag.String("workload", "camel", "workload name")
		variant  = flag.String("variant", "ghost", "variant to trace (baseline | swpf | smt-openmp | ghost)")
		scale    = cli.Scale(flag.CommandLine, workloads.ScaleProfile, "workload input scale: eval | profile")
		rows     = cli.Int(flag.CommandLine, "rows", 60, 1, "timeline rows to print")
		csv      = flag.Bool("csv", false, "emit sample CSV instead of the timeline")
		chrome   = flag.String("chrome", "", "write Chrome trace-event JSON to this file")
		folded   = flag.String("folded", "", "write folded stacks (main-thread stall cycles per pc) to this file")
		bufSize  = cli.Int(flag.CommandLine, "buf", obs.DefaultCapacity, 1, "trace ring-buffer capacity in events")
		window   = cli.Int(flag.CommandLine, "window", 5000, 1, "telemetry window in cycles: the timeline's sampling period and, with -chrome, the counter-track period")
		validate = flag.String("validate", "", "validate an existing Chrome trace JSON file and exit")
	)
	tool.Parse()

	// Standalone validation mode: no workload is built or run.
	if *validate != "" {
		data, err := os.ReadFile(*validate)
		tool.Check(err)
		tool.Check(obs.ValidateChrome(data))
		fmt.Printf("%s: valid Chrome trace JSON\n", *validate)
		return
	}

	build, err := cli.Lookup(*workload, *variant)
	tool.Check(err)
	opts := workloads.DefaultOptions()
	opts.Scale = *scale
	if *chrome != "" {
		// The counter tracks' ghost lead needs the ghost's published
		// counter word.
		opts.Sync.Trace = true
	}
	inst := build(opts)
	v, err := cli.Variant(inst, *variant)
	tool.Check(err)

	// Drive the run through sim.Run so tracing rides the same event-skip
	// fast path every other tool uses; windows flush on the exact
	// per-cycle schedule regardless of skipping, and the timeline samples
	// the pipeline at each full window's boundary.
	cfg := sim.DefaultConfig()
	cfg.Telemetry.WindowCycles = *window
	if *chrome != "" {
		cfg.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
	}
	var samples []cpu.PipelineSample
	var windows []obs.WindowSample
	var core0 *cpu.Core
	cfg.Telemetry.Sink = func(ws obs.WindowSample) {
		windows = append(windows, ws)
		if ws.End%*window == 0 {
			samples = append(samples, core0.Sample())
		}
	}
	s := sim.New(cfg, inst.Mem)
	s.Load(0, v.Main, v.Helpers)
	core0 = s.Core(0)

	var rec *obs.Recorder
	if *chrome != "" {
		rec = obs.NewRecorder(int(*bufSize))
		s.SetTrace(0, rec)
	}
	_, err = s.Run()
	tool.Check(err)
	if err := inst.CheckFor(*variant)(inst.Mem); err != nil {
		tool.Check(fmt.Errorf("result check: %w", err))
	}

	if *chrome != "" {
		writeChrome(*chrome, rec, windows, core0, *workload, *variant)
	}
	if *folded != "" {
		stall, _ := core0.PCProfile(0)
		out := obs.FoldedStacks(v.Main, stall)
		tool.Check(os.WriteFile(*folded, []byte(out), 0o644))
		fmt.Printf("folded stacks (main-thread stall cycles) written to %s\n", *folded)
	}

	if *csv {
		fmt.Println("cycle,rob0,rob1,lq0,lq1,mshr,ser0,ser1")
		for _, p := range samples {
			fmt.Printf("%d,%d,%d,%d,%d,%d,%v,%v\n",
				p.Cycle, p.ROB[0], p.ROB[1], p.LQ[0], p.LQ[1], p.MSHRs,
				p.SerializeBlocked[0], p.SerializeBlocked[1])
		}
		return
	}
	if *chrome != "" || *folded != "" {
		return // export modes skip the ASCII timeline
	}

	fmt.Printf("pipeline timeline of %s/%s (sampled every %d cycles; %d samples)\n",
		inst.Name, *variant, *window, len(samples))
	fmt.Println("         cycle  ROB main (#) / ghost (+)                       MSHR  ser")
	step := len(samples) / int(*rows)
	if step < 1 {
		step = 1
	}
	robCap := cpu.DefaultConfig().ROBSize
	for i := 0; i < len(samples); i += step {
		p := samples[i]
		w0 := p.ROB[0] * 40 / robCap
		w1 := p.ROB[1] * 40 / robCap
		bar := strings.Repeat("#", w0) + strings.Repeat("+", w1)
		if len(bar) > 46 {
			bar = bar[:46]
		}
		ser := " "
		if p.SerializeBlocked[1] {
			ser = "S"
		}
		fmt.Printf("%14d  %-46s %4d   %s\n", p.Cycle, bar, p.MSHRs, ser)
	}
}

// writeChrome exports the recorded events plus the windowed-telemetry
// counter tracks and self-checks the result: schema
// validation plus the span-sum invariant (serialize-throttle span
// durations sum to the SerializeStall counter when nothing was dropped).
func writeChrome(path string, rec *obs.Recorder, windows []obs.WindowSample, core0 *cpu.Core, workload, variant string) {
	events := rec.Events()
	data, err := obs.ChromeTraceWindows(events, windows, workload+"/"+variant)
	tool.Check(err)
	tool.Check(obs.ValidateChrome(data))
	tool.Check(os.WriteFile(path, data, 0o644))

	var spanSum int64
	for _, e := range events {
		if e.Kind == obs.KindSerialize {
			spanSum += e.Dur
		}
	}
	stall := core0.SerializeStall(0) + core0.SerializeStall(1)
	fmt.Printf("chrome trace written to %s (%d events", path, len(events))
	if d := rec.Dropped(); d > 0 {
		fmt.Printf(", %d dropped — raise -buf", d)
	}
	fmt.Printf(")\nserialize-throttle spans sum to %d cycles (SerializeStall counter: %d)\n",
		spanSum, stall)
	if rec.Dropped() == 0 && spanSum != stall {
		tool.Check(fmt.Errorf("span sum %d != SerializeStall %d", spanSum, stall))
	}
}
