package harness

import (
	"fmt"
	"strings"

	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// Figure3 reproduces the motivation study: SWPF, SMT parallelization, and
// Ghost Threading applied directly (no heuristic) to the three Camel
// forms of figure 1. Returns speedups[form][technique].
func Figure3(cfg sim.Config) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for _, form := range []workloads.CamelForm{
		workloads.CamelOriginal, workloads.CamelParallel, workloads.CamelGhost,
	} {
		name := form.String()
		out[name] = map[string]float64{}
		var base int64
		for _, vname := range workloads.VariantNames {
			inst := workloads.NewCamel(form, workloads.DefaultOptions())
			v := inst.VariantByName(vname)
			res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
			if err != nil {
				return nil, fmt.Errorf("harness: fig3 %s/%s: %w", name, vname, err)
			}
			if err := inst.CheckFor(vname)(inst.Mem); err != nil {
				return nil, fmt.Errorf("harness: fig3 %s/%s: %w", name, vname, err)
			}
			if vname == "baseline" {
				base = res.Cycles
				continue
			}
			out[name][vname] = float64(base) / float64(res.Cycles)
		}
	}
	return out, nil
}

// RenderFigure3 formats the figure-3 result.
func RenderFigure3(data map[string]map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "camel form", "swpf", "smt-omp", "ghost")
	for _, form := range []string{"camel", "camel-par", "camel-ghost"} {
		fmt.Fprintf(&b, "%-14s %10.2f %10.2f %10.2f\n", form,
			data[form]["swpf"], data[form]["smt-openmp"], data[form]["ghost"])
	}
	return b.String()
}

// Table1 renders the input-dataset table (paper table 1), instantiated
// with this reproduction's scaled inputs.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-44s %-44s\n", "workload", "input for evaluation", "input for profiling")
	rows := [][3]string{
		{"GAP", "kron scale-13 deg-16 (tc: scale-11)", "kron scale-12 deg-12 (tc: scale-9)"},
		{"", "twitter n=8192 deg-16", "twitter n=4096 deg-12"},
		{"", "urand n=8192 deg-16", "urand n=4096 deg-12"},
		{"", "road 96x96 grid", "road 64x64 grid"},
		{"", "web n=8192 power-law", "web n=4096 power-law"},
		{"camel", "1 MiB values / 32k iterations", "256 KiB values / 8k iterations"},
		{"kangaroo", "512 KiB tables / 16k iterations", "128 KiB tables / 4k iterations"},
		{"nas-is", "32k keys / 32k buckets", "8k keys / 8k buckets"},
		{"hj2", "R=8k S=16k tuples", "R=2k S=4k tuples"},
		{"hj8", "R=8k S=16k tuples", "R=2k S=4k tuples"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-44s %-44s\n", r[0], r[1], r[2])
	}
	b.WriteString("(inputs scaled ~2^10 from the paper's, caches scaled with them; DESIGN.md §7)\n")
	return b.String()
}

// DistanceSample is one point of the figure-10 inter-thread distance
// trace.
type DistanceSample struct {
	Cycle    int64
	Main     int64
	Ghost    int64
	Distance int64
}

// Figure10 samples the distance between the ghost thread and the main
// thread on cc.urand's Afforest link loop (the paper's §6.5 case study),
// with and without the synchronization mechanism. period is the
// sampling period in cycles; maxSamples bounds the trace length.
func Figure10(withSync bool, period int64, maxSamples int) ([]DistanceSample, error) {
	opts := workloads.DefaultOptions()
	opts.Sync.Trace = true
	if !withSync {
		// "Without synchronization": the ghost never throttles or skips —
		// emulated by an effectively infinite TooFar with no backoff.
		opts.Sync.TooFar = 1 << 40
		opts.Sync.Close = 1 << 39
		opts.Sync.MaxBackoff = 1
	}
	inst := workloads.NewCC("urand", opts)
	v := inst.Ghost

	// The counter words are read at every full window's boundary cycle;
	// the partial tail window at end of run is not a sample.
	var samples []DistanceSample
	cfg := sim.DefaultConfig()
	cfg.Telemetry.WindowCycles = period
	cfg.Telemetry.Sink = func(ws obs.WindowSample) {
		if len(samples) >= maxSamples || ws.End%period != 0 {
			return
		}
		m := inst.Mem.LoadWord(inst.Counters.MainAddr)
		g := inst.Mem.LoadWord(inst.Counters.GhostAddr)
		samples = append(samples, DistanceSample{Cycle: ws.End, Main: m, Ghost: g, Distance: g - m})
	}
	if _, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers); err != nil {
		return nil, fmt.Errorf("harness: fig10: %w", err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		return nil, fmt.Errorf("harness: fig10 result check: %w", err)
	}
	return samples, nil
}

// RenderFigure10 formats a distance trace as CSV (cycle,distance).
func RenderFigure10(samples []DistanceSample) string {
	var b strings.Builder
	b.WriteString("cycle,main_iter,ghost_iter,distance\n")
	for _, s := range samples {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", s.Cycle, s.Main, s.Ghost, s.Distance)
	}
	return b.String()
}

// Fig10Summary reports the headline statistics of a trace: min, max and
// mean distance over the sampled window.
func Fig10Summary(samples []DistanceSample) (minD, maxD int64, mean float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	minD, maxD = samples[0].Distance, samples[0].Distance
	var sum int64
	for _, s := range samples {
		if s.Distance < minD {
			minD = s.Distance
		}
		if s.Distance > maxD {
			maxD = s.Distance
		}
		sum += s.Distance
	}
	return minD, maxD, float64(sum) / float64(len(samples))
}
