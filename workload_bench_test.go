package ghostthread_test

import (
	"testing"

	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// BenchmarkWorkloads runs every workload × technique variant on the
// simulated machine at profiling scale (one full run per iteration) and
// reports the speedup over the baseline as a metric. This is the
// per-workload surface behind figures 6-8; the figure benchmarks
// aggregate it at evaluation scale.
func BenchmarkWorkloads(b *testing.B) {
	for _, wn := range workloads.AllWorkloadNames() {
		wn := wn
		build, err := workloads.Lookup(wn)
		if err != nil {
			b.Fatal(err)
		}
		// Baseline cycles for the speedup metric (measured once).
		base := runOnce(b, build, "baseline")
		for _, vname := range workloads.VariantNames {
			vname := vname
			probe := build(workloads.ProfileOptions())
			if probe.VariantByName(vname) == nil {
				continue
			}
			b.Run(wn+"/"+vname, func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					cycles = runOnce(b, build, vname)
				}
				b.ReportMetric(float64(cycles), "cycles")
				b.ReportMetric(float64(base)/float64(cycles), "speedup-x")
			})
		}
	}
}

func runOnce(b *testing.B, build workloads.Builder, vname string) int64 {
	b.Helper()
	inst := build(workloads.ProfileOptions())
	v := inst.VariantByName(vname)
	res, err := sim.RunProgram(sim.DefaultConfig(), inst.Mem, v.Main, v.Helpers)
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.CheckFor(vname)(inst.Mem); err != nil {
		b.Fatal(err)
	}
	return res.Cycles
}
