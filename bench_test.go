package ghostthread_test

import (
	"testing"

	"ghostthread/internal/cache"
	"ghostthread/internal/core"
	"ghostthread/internal/harness"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// The benchmarks below regenerate the paper's tables and figures — one
// benchmark per experiment, reporting the headline numbers as custom
// metrics so `go test -bench` output records the reproduction's results.
// A single iteration regenerates the whole experiment; run with
// -benchtime=1x for one pass.

// BenchmarkTable1 regenerates the input-dataset table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3 regenerates the motivation study (Camel forms).
// Paper: SWPF wins the original form, parallelization the (b) form, and
// Ghost Threading the nested (c) form.
func BenchmarkFigure3(b *testing.B) {
	var data map[string]map[string]float64
	var err error
	for i := 0; i < b.N; i++ {
		data, err = harness.Figure3(sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(data["camel"]["swpf"], "camel-swpf-x")
	b.ReportMetric(data["camel-par"]["smt-openmp"], "camelpar-smt-x")
	b.ReportMetric(data["camel-ghost"]["ghost"], "camelghost-ghost-x")
}

// benchMatrix runs the full 34-workload evaluation on the given machine
// (parallel across GOMAXPROCS workers) and reports the geomeans (paper
// fig 6: 1.06/1.22/1.33/1.11 on idle; fig 8: 1.07/1.26/1.40/1.06 on
// busy).
func benchMatrix(b *testing.B, cfg sim.Config, machine string) *harness.Matrix {
	var m *harness.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = harness.RunMatrixWorkers(workloads.AllWorkloadNames(), machine, cfg, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.GeomeanSpeedup(harness.TechSWPF), "swpf-x")
	b.ReportMetric(m.GeomeanSpeedup(harness.TechSMT), "smt-x")
	b.ReportMetric(m.GeomeanSpeedup(harness.TechGhost), "ghost-x")
	b.ReportMetric(m.GeomeanSpeedup(harness.TechCompiler), "compiler-x")
	b.ReportMetric(float64(m.GhostSelected()), "selected")
	return m
}

// BenchmarkFigure6 regenerates the idle-server single-core speedups.
func BenchmarkFigure6(b *testing.B) {
	benchMatrix(b, sim.DefaultConfig(), "idle")
}

// BenchmarkFigure7 regenerates the idle-server energy savings (paper
// geomeans: 6%/12%/16%/4%).
func BenchmarkFigure7(b *testing.B) {
	m := benchMatrix(b, sim.DefaultConfig(), "idle")
	b.ReportMetric(100*m.GeomeanSaving(harness.TechSWPF), "swpf-save-%")
	b.ReportMetric(100*m.GeomeanSaving(harness.TechSMT), "smt-save-%")
	b.ReportMetric(100*m.GeomeanSaving(harness.TechGhost), "ghost-save-%")
	b.ReportMetric(100*m.GeomeanSaving(harness.TechCompiler), "compiler-save-%")
}

// BenchmarkFigure8 regenerates the busy-server speedups.
func BenchmarkFigure8(b *testing.B) {
	benchMatrix(b, sim.BusyConfig(), "busy")
}

// BenchmarkFigure9 regenerates the multi-core scaling study.
func BenchmarkFigure9(b *testing.B) {
	var r *harness.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = harness.Figure9(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.NoOmp, "noomp-ghost-x")
	for _, c := range harness.Fig9CoreCounts {
		b.ReportMetric(r.Geomean[harness.TechGhost][c], "ghost-x-"+itoa(c)+"c")
		b.ReportMetric(r.Geomean[harness.TechSMT][c], "smt-x-"+itoa(c)+"c")
	}
}

// BenchmarkFigure10 regenerates the inter-thread distance traces and
// reports the bounded (with sync) vs runaway (without sync) mean
// distances.
func BenchmarkFigure10(b *testing.B) {
	var with, without []harness.DistanceSample
	var err error
	for i := 0; i < b.N; i++ {
		with, err = harness.Figure10(true, 20_000, 400)
		if err != nil {
			b.Fatal(err)
		}
		without, err = harness.Figure10(false, 20_000, 400)
		if err != nil {
			b.Fatal(err)
		}
	}
	_, _, meanWith := harness.Fig10Summary(with)
	_, _, meanWithout := harness.Fig10Summary(without)
	b.ReportMetric(meanWith, "dist-with-sync")
	b.ReportMetric(meanWithout, "dist-without-sync")
}

// --- Ablation benchmarks (design-choice studies beyond the paper's
// figures; DESIGN.md §5 lists them) -------------------------------------

// BenchmarkAblationSync compares the ghost with the full synchronization
// segment against an unsynchronised ghost on camel — the headline claim
// that cheap throttling, not just helper threading, delivers the win.
func BenchmarkAblationSync(b *testing.B) {
	run := func(opts workloads.Options) int64 {
		inst := workloads.NewCamel(workloads.CamelOriginal, opts)
		res, err := sim.RunProgram(sim.DefaultConfig(), inst.Mem, inst.Ghost.Main, inst.Ghost.Helpers)
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Check(inst.Mem); err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	var synced, unsynced int64
	for i := 0; i < b.N; i++ {
		synced = run(workloads.DefaultOptions())
		noSync := workloads.DefaultOptions()
		noSync.Sync.TooFar = 1 << 40
		noSync.Sync.Close = 1 << 39
		unsynced = run(noSync)
	}
	b.ReportMetric(float64(unsynced)/float64(synced), "sync-benefit-x")
}

// BenchmarkAblationHWPrefetch measures how much of the baseline's
// performance comes from the hardware stream prefetcher (the substrate
// assumption DESIGN.md calls out).
func BenchmarkAblationHWPrefetch(b *testing.B) {
	run := func(hw bool) int64 {
		inst := workloads.NewBFS("urand", workloads.DefaultOptions())
		cfg := sim.DefaultConfig()
		cfg.Hier.HWPrefetch = hw
		res, err := sim.RunProgram(cfg, inst.Mem, inst.Baseline.Main, nil)
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	var with, without int64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(float64(without)/float64(with), "hwpf-benefit-x")
	_ = cache.DefaultHierarchyConfig()
}

// BenchmarkAblationSerializeLat sweeps the serialize cost: the mechanism
// must stay effective across a range of drain costs.
func BenchmarkAblationSerializeLat(b *testing.B) {
	for _, lat := range []int64{10, 30, 100} {
		lat := lat
		b.Run("lat-"+itoa64(lat), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				inst := workloads.NewCamel(workloads.CamelOriginal, workloads.DefaultOptions())
				cfg := sim.DefaultConfig()
				cfg.CPU.SerializeLat = lat
				res, err := sim.RunProgram(cfg, inst.Mem, inst.Ghost.Main, inst.Ghost.Helpers)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkHeuristic measures the selection pipeline itself (profile +
// select) — the deployment cost a user pays once per workload.
func BenchmarkHeuristic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := harness.Eval("camel", sim.DefaultConfig(), core.DefaultHeuristicParams())
		if err != nil {
			b.Fatal(err)
		}
		if row.Decision != core.UseGhost {
			b.Fatalf("camel not selected (decision %s)", row.Decision)
		}
	}
}

func itoa(v int) string { return itoa64(int64(v)) }

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
