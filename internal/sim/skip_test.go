package sim_test

import (
	"reflect"
	"testing"

	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// runBoth builds two fresh instances of the named workload variant and
// runs one through the per-cycle reference loop (CycleStep) and one
// through the event-skip fast path, returning both Results.
func runBoth(t *testing.T, workload, variant string, cfg sim.Config) (ref, opt sim.Result) {
	t.Helper()
	build, err := workloads.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	runOne := func(cycleStep bool) sim.Result {
		inst := build(workloads.ProfileOptions())
		v := inst.VariantByName(variant)
		if v == nil {
			t.Fatalf("%s has no %s variant", workload, variant)
		}
		c := cfg
		c.CycleStep = cycleStep
		res, err := sim.RunProgram(c, inst.Mem, v.Main, v.Helpers)
		if err != nil {
			t.Fatalf("%s/%s (CycleStep=%v): %v", workload, variant, cycleStep, err)
		}
		if err := inst.CheckFor(variant)(inst.Mem); err != nil {
			t.Fatalf("%s/%s (CycleStep=%v): result check: %v", workload, variant, cycleStep, err)
		}
		return res
	}
	return runOne(true), runOne(false)
}

func assertEqualResults(t *testing.T, workload, variant string, ref, opt sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(ref, opt) {
		t.Errorf("%s/%s: event-skip Result diverged from per-cycle reference\n ref: %+v\nskip: %+v",
			workload, variant, ref, opt)
	}
}

// TestSkipEquivalenceWorkloads proves the hard equivalence bar on the
// representative slice: every Result field bit-identical between the
// per-cycle reference and the event-skip fast path.
func TestSkipEquivalenceWorkloads(t *testing.T) {
	cases := []struct {
		workload string
		variants []string
	}{
		{"camel", []string{"baseline", "swpf", "smt-openmp", "ghost"}},
		{"bfs.kron", []string{"baseline", "swpf", "ghost"}},
		{"hj8", []string{"baseline", "swpf", "smt-openmp", "ghost"}},
		{"cc.urand", []string{"ghost"}},
	}
	for _, tc := range cases {
		for _, variant := range tc.variants {
			ref, opt := runBoth(t, tc.workload, variant, sim.DefaultConfig())
			assertEqualResults(t, tc.workload, variant, ref, opt)
		}
	}
}

// TestSkipEquivalenceBusyServer covers the pressure-agent machine: its
// bandwidth-token accounting is lazy, so this guards against any skip
// change that would add or move a catch-up point.
func TestSkipEquivalenceBusyServer(t *testing.T) {
	for _, c := range []struct{ workload, variant string }{
		{"camel", "baseline"},
		{"hj8", "ghost"},
	} {
		ref, opt := runBoth(t, c.workload, c.variant, sim.BusyConfig())
		assertEqualResults(t, c.workload+"(busy)", c.variant, ref, opt)
	}
}

// chase builds a pointer-chase program over a cyclic permutation written
// at base, long enough to keep a core DRAM-bound.
func buildChase(name string, base int64, hops int64) *isa.Program {
	b := isa.NewBuilder(name)
	ptr := b.Imm(base)
	zero := b.Imm(0)
	n := b.Imm(hops)
	b.CountedLoop("hop", zero, n, func(i isa.Reg) {
		b.Load(ptr, ptr, 0)
	})
	b.Halt()
	return b.MustBuild()
}

func initChase(m *mem.Memory, base, ptrs int64) {
	idx := int64(0)
	for n := int64(0); n < ptrs; n++ {
		next := (5*idx + 1) % ptrs
		m.StoreWord(base+idx*9, base+next*9)
		idx = next
	}
}

// buildCompute builds a dependent ALU loop that never leaves the core:
// beside a pointer chase it keeps the machine stepping every cycle while
// the chasing core waits on DRAM.
func buildCompute(name string, out int64, iters int64) *isa.Program {
	b := isa.NewBuilder(name)
	d := b.Imm(0)
	zero := b.Imm(0)
	n := b.Imm(iters)
	b.CountedLoop("alu", zero, n, func(i isa.Reg) {
		b.AddI(d, d, 3)
		b.AddI(d, d, -1)
	})
	o := b.Imm(out)
	b.Store(o, 0, d)
	b.Halt()
	return b.MustBuild()
}

// TestSkipEquivalenceMultiCore runs two cores over a shared LLC and
// memory controller and requires the per-cycle and per-core-skipping
// Results to match, per-core finish cycles included. In the first pair
// both cores chase pointers but finish far apart; in the second a
// compute-bound core steps nearly every cycle while the chasing core
// lags the machine clock for most of the run.
func TestSkipEquivalenceMultiCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		core [2]*isa.Program
	}{
		{"chase", [2]*isa.Program{buildChase("long", 1<<14, 1200), buildChase("short", 1<<16, 150)}},
		{"compute+chase", [2]*isa.Program{buildCompute("alu", 1<<15, 20_000), buildChase("chase", 1<<16, 600)}},
	} {
		run := func(cycleStep bool) (sim.Result, []int64) {
			cfg := sim.DefaultConfig()
			cfg.Cores = 2
			cfg.CycleStep = cycleStep
			m := mem.New(1 << 17)
			initChase(m, 1<<14, 1<<10)
			initChase(m, 1<<16, 1<<10)
			s := sim.New(cfg, m)
			s.Load(0, tc.core[0], nil)
			s.Load(1, tc.core[1], nil)
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s (cycleStep=%v): %v", tc.name, cycleStep, err)
			}
			return res, snapshot(m)
		}
		ref, refMem := run(true)
		opt, optMem := run(false)
		assertEqualResults(t, "multicore", tc.name, ref, opt)
		if !reflect.DeepEqual(refMem, optMem) {
			t.Errorf("multicore/%s: final memory image diverged", tc.name)
		}
		if len(ref.CoreCycles) != 2 || ref.CoreCycles[0] == ref.CoreCycles[1] {
			t.Errorf("%s: expected distinct per-core finish cycles, got %v", tc.name, ref.CoreCycles)
		}
	}
}

// TestFinishAtDistinctPerCore is the regression test for the finishAt
// sentinel: with the old 0-means-unfinished encoding, a stale slot could
// silently fall back to c.Now() (the final cycle) instead of the core's
// actual finish cycle. The short core must report its own early finish.
func TestFinishAtDistinctPerCore(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	m := mem.New(1 << 17)
	initChase(m, 1<<14, 1<<10)
	initChase(m, 1<<16, 1<<10)
	s := sim.New(cfg, m)
	s.Load(0, buildChase("long", 1<<14, 1200), nil)
	s.Load(1, buildChase("short", 1<<16, 150), nil)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreCycles[1] >= res.CoreCycles[0] {
		t.Errorf("short core finished at %d, long at %d; want short < long",
			res.CoreCycles[1], res.CoreCycles[0])
	}
	if res.Cycles != res.CoreCycles[0] {
		t.Errorf("Cycles = %d, want the last finisher's %d", res.Cycles, res.CoreCycles[0])
	}
}
