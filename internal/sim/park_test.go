package sim_test

// park_test.go — parked cores (DESIGN.md §9.5). A multi-core run that
// parks spinning cores must match the per-cycle reference (CycleStep,
// which never parks) in everything a core can report: Result, per-core
// Stats, both contexts' PC profiles and the final memory image — also
// when a store or atomic releases a spinner on either side of the
// writer's index, and when nothing ever releases it.

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"ghostthread/internal/cpu"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// machineRun is everything a run leaves behind that parking could move.
type machineRun struct {
	res    sim.Result
	err    error
	now    []int64
	stats  []cpu.Stats
	prof   [][]int64 // per core: context 0 stall+exec, then context 1's
	mem    []int64
	parked int64
}

// runMachine loads per[i] on core i of a machine built from cfg over m
// (Cores follows len(per)), lets attach add observers, and runs it.
func runMachine(cfg sim.Config, m *mem.Memory, per []workloads.CorePrograms, attach func(*sim.System)) machineRun {
	cfg.Cores = len(per)
	s := sim.New(cfg, m)
	for i, p := range per {
		s.Load(i, p.Main, p.Helpers)
	}
	if attach != nil {
		attach(s)
	}
	var r machineRun
	r.res, r.err = s.Run()
	for i := range per {
		c := s.Core(i)
		r.now = append(r.now, c.Now())
		r.stats = append(r.stats, c.Stats())
		var prof []int64
		for ctx := 0; ctx < 2; ctx++ {
			stall, exec := c.PCProfile(ctx)
			prof = append(append(prof, stall...), exec...)
		}
		r.prof = append(r.prof, prof)
	}
	r.mem = snapshot(m)
	r.parked = s.ParkedCycles()
	return r
}

// assertParkedMatches compares a parking run against the CycleStep
// reference.
func assertParkedMatches(t *testing.T, label string, ref, got machineRun) {
	t.Helper()
	if ref.parked != 0 {
		t.Errorf("%s: CycleStep run parked %d cycles", label, ref.parked)
	}
	if !reflect.DeepEqual(ref.err, got.err) {
		t.Errorf("%s: error %v, CycleStep %v", label, got.err, ref.err)
	}
	if !reflect.DeepEqual(ref.res, got.res) {
		t.Errorf("%s: Result diverged from CycleStep\n ref: %+v\n got: %+v", label, ref.res, got.res)
	}
	if !slices.Equal(ref.now, got.now) {
		t.Errorf("%s: core clocks %v, CycleStep %v", label, got.now, ref.now)
	}
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Errorf("%s: per-core Stats diverged from CycleStep\n ref: %+v\n got: %+v", label, ref.stats, got.stats)
	}
	if !reflect.DeepEqual(ref.prof, got.prof) {
		t.Errorf("%s: PC profiles diverged from CycleStep", label)
	}
	if !slices.Equal(ref.mem, got.mem) {
		t.Errorf("%s: final memory image diverged from CycleStep", label)
	}
}

// TestParkEquivalenceFig9 runs the six figure-9 builds of the fig9-4core
// benchmark (bfs.kron, cc.urand and pr.urand, baseline and ghost, four
// cores) at profile scale, where every one of them parks.
func TestParkEquivalenceFig9(t *testing.T) {
	for _, row := range [][2]string{{"bfs", "kron"}, {"cc", "urand"}, {"pr", "urand"}} {
		for _, tech := range []workloads.MultiTech{workloads.MultiBaseline, workloads.MultiGhost} {
			label := row[0] + "." + row[1] + "/" + tech.String()
			run := func(cycleStep bool) machineRun {
				inst, err := workloads.NewMulti(row[0], row[1], 4, tech, workloads.ProfileOptions())
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.CycleStep = cycleStep
				r := runMachine(cfg, inst.Mem, inst.Per, nil)
				if r.err != nil {
					t.Fatalf("%s (cycleStep=%v): %v", label, cycleStep, r.err)
				}
				if err := inst.Check(inst.Mem); err != nil {
					t.Fatalf("%s (cycleStep=%v): check: %v", label, cycleStep, err)
				}
				return r
			}
			ref, got := run(true), run(false)
			assertParkedMatches(t, label, ref, got)
			if row[0] == "bfs" && got.parked == 0 {
				t.Errorf("%s: no core parked; the barrier spin should", label)
			}
		}
	}
}

// Word addresses of the microprograms' shared data.
const (
	flagAddr = 1 << 10
	outAddr  = 1 << 11 // spinner i stores what it read to outAddr + 8*i
)

// spinner waits for the word at flagAddr to become non-zero, then stores
// it to out and halts.
func spinner(out int64) *isa.Program {
	b := isa.NewBuilder("spinner")
	f := b.Imm(flagAddr)
	zero := b.Imm(0)
	v := b.Reg()
	spin := b.HereLabel()
	b.Load(v, f, 0)
	b.BEQ(v, zero, spin)
	o := b.Imm(out)
	b.Store(o, 0, v)
	b.Halt()
	return b.MustBuild()
}

// smtSpinner is spinner with a helper context spinning on the same word
// beside it, so the period must also respect which context dispatches
// first (the parity of the cycle). The join retires the helper.
func smtSpinner(out int64) workloads.CorePrograms {
	b := isa.NewBuilder("smt-spinner")
	f := b.Imm(flagAddr)
	zero := b.Imm(0)
	v := b.Reg()
	b.Spawn(0)
	spin := b.HereLabel()
	b.Load(v, f, 0)
	b.BEQ(v, zero, spin)
	o := b.Imm(out)
	b.Store(o, 0, v)
	b.Join()
	b.Halt()
	main := b.MustBuild()

	h := isa.NewBuilder("helper-spin")
	hf := h.Imm(flagAddr)
	hz := h.Imm(0)
	hv := h.Reg()
	hspin := h.HereLabel()
	h.Load(hv, hf, 0)
	h.BEQ(hv, hz, hspin)
	h.Halt()
	return workloads.CorePrograms{Main: main, Helpers: []*isa.Program{h.MustBuild()}}
}

// How writer releases the spinners.
const (
	releaseStore  = iota // one store
	releaseAtomic        // one atomic add
	releaseNoisy         // one store, after storing the old value 0 every 64 iterations
)

// writer computes for a while (long enough for the spinners to park),
// then releases them by writing 7 to the word at addr.
func writer(addr int64, release int) *isa.Program {
	b := isa.NewBuilder("writer")
	d := b.Imm(0)
	zero := b.Imm(0)
	n := b.Imm(5_000)
	a := b.Imm(addr)
	tmp := b.Reg()
	b.CountedLoop("work", zero, n, func(i isa.Reg) {
		b.AddI(d, d, 3)
		b.MulI(d, d, 5)
		if release == releaseNoisy {
			// Each store wakes the parked spinners without releasing them.
			skip := b.NewLabel()
			b.AndI(tmp, i, 63)
			b.BNE(tmp, zero, skip)
			b.Store(a, 0, zero)
			b.Bind(skip)
		}
	})
	seven := b.Imm(7)
	if release == releaseAtomic {
		b.AtomicAdd(b.Reg(), a, 0, seven)
	} else {
		b.Store(a, 0, seven)
	}
	b.Halt()
	return b.MustBuild()
}

// watchMachine is a spinner on each side of a writer: core 0 (with a
// spinning helper) steps before the writer (core 1) in every cycle,
// core 2 after it.
func watchMachine(addr int64, release int) []workloads.CorePrograms {
	return []workloads.CorePrograms{
		smtSpinner(outAddr),
		{Main: writer(addr, release)},
		{Main: spinner(outAddr + 8)},
	}
}

// TestParkWatchOrder releases parked spinners below and above the
// writer's index, by a store and by an atomic add: each must read the
// word at exactly the cycle it would have stepping every cycle. The noisy
// writer wakes them every few hundred cycles with a store that leaves the
// word as it was, so they park and unpark many times.
func TestParkWatchOrder(t *testing.T) {
	for release, label := range []string{"store", "atomic", "noisy"} {
		run := func(cycleStep bool) machineRun {
			cfg := sim.DefaultConfig()
			cfg.CycleStep = cycleStep
			r := runMachine(cfg, mem.New(1<<12), watchMachine(flagAddr, release), nil)
			if r.err != nil {
				t.Fatalf("%s (cycleStep=%v): %v", label, cycleStep, r.err)
			}
			return r
		}
		ref, got := run(true), run(false)
		assertParkedMatches(t, label, ref, got)
		if got.parked == 0 {
			t.Errorf("%s: no spinner parked; the test proves nothing", label)
		}
		for i := int64(0); i < 2; i++ {
			if v := got.mem[outAddr+8*i]; v != 7 {
				t.Errorf("%s: spinner %d read %d, want 7", label, i, v)
			}
		}
	}
}

// TestParkNeverReleased parks a spinner that nothing releases (the writer
// stores elsewhere): the run must hit MaxCycles with the same
// BudgetError, clocks and counters as CycleStep.
func TestParkNeverReleased(t *testing.T) {
	run := func(cycleStep bool) machineRun {
		cfg := sim.DefaultConfig()
		cfg.CycleStep = cycleStep
		cfg.MaxCycles = 100_003
		return runMachine(cfg, mem.New(1<<12), watchMachine(flagAddr+64, releaseStore), nil)
	}
	ref, got := run(true), run(false)
	var be *sim.BudgetError
	if !errors.As(ref.err, &be) {
		t.Fatalf("CycleStep err = %v, want *sim.BudgetError", ref.err)
	}
	assertParkedMatches(t, "never released", ref, got)
	if got.parked < 50_000 {
		t.Errorf("parked %d cycles of a 100k-cycle spin; want most of them", got.parked)
	}
}

// TestParkOnlyWhenUnobserved: a single core never probes, and neither
// does a core with telemetry, faults, the shadow oracle or a trace
// recorder attached — they act at every dispatch.
func TestParkOnlyWhenUnobserved(t *testing.T) {
	alone := sim.DefaultConfig()
	alone.MaxCycles = 20_000
	if r := runMachine(alone, mem.New(1<<12), []workloads.CorePrograms{{Main: spinner(outAddr)}}, nil); r.parked != 0 {
		t.Errorf("single core: parked %d cycles", r.parked)
	}
	traced := func(s *sim.System) {
		rec := obs.NewRecorder(obs.DefaultCapacity)
		for i := 0; i < s.Cores(); i++ {
			s.SetTrace(i, rec)
		}
	}
	for _, tc := range []struct {
		name   string
		cfg    func(*sim.Config)
		attach func(*sim.System)
	}{
		{"telemetry", func(c *sim.Config) { c.Telemetry.WindowCycles = 5_000 }, nil},
		{"faults", func(c *sim.Config) { c.Fault = combinedSchedule() }, nil},
		{"shadow", func(c *sim.Config) { c.Shadow.Enabled = true }, nil},
		{"trace", func(*sim.Config) {}, traced},
	} {
		cfg := sim.DefaultConfig()
		tc.cfg(&cfg)
		r := runMachine(cfg, mem.New(1<<12), watchMachine(flagAddr, releaseStore), tc.attach)
		if r.err != nil {
			t.Fatalf("%s: %v", tc.name, r.err)
		}
		if r.parked != 0 {
			t.Errorf("%s: parked %d cycles", tc.name, r.parked)
		}
	}
}
