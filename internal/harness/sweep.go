package harness

import (
	"fmt"
	"strings"

	"ghostthread/internal/core"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// SweepPoint is one configuration of the synchronization
// hyper-parameter sensitivity study (the customization the paper's
// artifact supports, §A.7, and the tuning §4.3.2 describes).
type SweepPoint struct {
	Params  core.SyncParams
	Cycles  int64
	Speedup float64 // over the unmodified baseline
}

// SweepSync runs a workload's ghost variant across a grid of
// synchronization distances and frequencies, reporting the speedup of
// each point — the experiment used to tune DefaultSyncParams.
func SweepSync(workload string, cfg sim.Config) ([]SweepPoint, error) {
	build, err := workloads.Lookup(workload)
	if err != nil {
		return nil, err
	}
	baseInst := build(workloads.DefaultOptions())
	base, err := sim.RunProgram(cfg, baseInst.Mem, baseInst.Baseline.Main, nil)
	if err != nil {
		return nil, err
	}
	if err := baseInst.Check(baseInst.Mem); err != nil {
		return nil, fmt.Errorf("harness: sweep %s baseline: %w", workload, err)
	}

	var grid []core.SyncParams
	for _, freq := range []int64{8, 16, 32} {
		for _, tooFar := range []int64{48, 96, 192} {
			grid = append(grid, core.SyncParams{
				SyncFreq:   freq,
				TooFar:     tooFar,
				Close:      tooFar / 2,
				SkipStep:   32,
				MaxBackoff: 64,
			})
		}
	}

	var out []SweepPoint
	for _, p := range grid {
		opts := workloads.DefaultOptions()
		opts.Sync = p
		inst := build(opts)
		if inst.Ghost == nil {
			return nil, fmt.Errorf("harness: %s has no ghost variant", workload)
		}
		res, err := sim.RunProgram(cfg, inst.Mem, inst.Ghost.Main, inst.Ghost.Helpers)
		if err != nil {
			return nil, fmt.Errorf("harness: sweep %s %+v: %w", workload, p, err)
		}
		if err := inst.Check(inst.Mem); err != nil {
			return nil, fmt.Errorf("harness: sweep %s %+v: %w", workload, p, err)
		}
		out = append(out, SweepPoint{
			Params:  p,
			Cycles:  res.Cycles,
			Speedup: float64(base.Cycles) / float64(res.Cycles),
		})
	}
	return out, nil
}

// RenderSweep formats a sweep as a table.
func RenderSweep(workload string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "synchronization sensitivity on %s (ghost variant speedup over baseline)\n", workload)
	fmt.Fprintf(&b, "%8s %8s %8s %10s %10s\n", "syncfreq", "toofar", "close", "cycles", "speedup")
	best := 0
	for i, p := range pts {
		if p.Speedup > pts[best].Speedup {
			best = i
		}
	}
	for i, p := range pts {
		mark := " "
		if i == best {
			mark = "*"
		}
		fmt.Fprintf(&b, "%8d %8d %8d %10d %9.2f%s\n",
			p.Params.SyncFreq, p.Params.TooFar, p.Params.Close, p.Cycles, p.Speedup, mark)
	}
	return b.String()
}

// AsciiPlot renders a distance trace as a rough terminal plot (the
// figure-10 visual): one row per sample bucket, bar length proportional
// to distance, capped at width.
func AsciiPlot(samples []DistanceSample, rows, width int) string {
	if len(samples) == 0 {
		return "(no samples)\n"
	}
	if rows <= 0 {
		rows = 40
	}
	if width <= 0 {
		width = 60
	}
	step := len(samples) / rows
	if step < 1 {
		step = 1
	}
	var maxD int64 = 1
	for _, s := range samples {
		if s.Distance > maxD {
			maxD = s.Distance
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "distance 0..%d over %d samples\n", maxD, len(samples))
	for i := 0; i < len(samples); i += step {
		s := samples[i]
		n := int(s.Distance * int64(width) / maxD)
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%10d |%s %d\n", s.Cycle, strings.Repeat("#", n), s.Distance)
	}
	return b.String()
}
