package workloads

import (
	"testing"

	"ghostthread/internal/isa"
	"ghostthread/internal/sim"
)

// TestGAPVariantsFunctionallyCorrect runs every variant of every GAP
// workload, all six kernels on all five graphs, under the functional
// interpreter and checks it against the workload's Go reference.
func TestGAPVariantsFunctionallyCorrect(t *testing.T) {
	for _, wn := range GAPWorkloadNames() {
		for _, vname := range VariantNames {
			t.Run(wn+"/"+vname, func(t *testing.T) {
				build, err := Lookup(wn)
				if err != nil {
					t.Fatal(err)
				}
				inst := build(ProfileOptions())
				v := inst.VariantByName(vname)
				if v == nil {
					t.Skip("variant unavailable")
				}
				if _, err := isa.Interp(v.Main, inst.Mem, v.Helpers, 500_000_000); err != nil {
					t.Fatal(err)
				}
				if err := inst.CheckFor(vname)(inst.Mem); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestGAPVariantsCorrectOnTimedCore(t *testing.T) {
	if testing.Short() {
		t.Skip("timed GAP runs are slow")
	}
	// One representative kernel per family on the timed core, all
	// variants (parallel exercises spawn/join + races, ghost exercises
	// serialize + prefetch).
	for _, wn := range []string{"bfs.urand", "cc.web", "pr.kron", "sssp.twitter", "tc.urand", "bc.kron"} {
		for _, vname := range VariantNames {
			t.Run(wn+"/"+vname, func(t *testing.T) {
				build, err := Lookup(wn)
				if err != nil {
					t.Fatal(err)
				}
				inst := build(ProfileOptions())
				v := inst.VariantByName(vname)
				if v == nil {
					t.Skip("variant unavailable")
				}
				if _, err := sim.RunProgram(sim.DefaultConfig(), inst.Mem, v.Main, v.Helpers); err != nil {
					t.Fatal(err)
				}
				if err := inst.CheckFor(vname)(inst.Mem); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestGhostProgramsAreReadOnly(t *testing.T) {
	// Every manual ghost helper must be read-only (modifies no
	// application state) — unless distance tracing is enabled.
	for _, wn := range AllWorkloadNames() {
		build, err := Lookup(wn)
		if err != nil {
			t.Fatal(err)
		}
		inst := build(ProfileOptions())
		if inst.Ghost == nil {
			continue
		}
		for _, hp := range inst.Ghost.Helpers {
			if !isa.ReadOnly(hp) {
				t.Errorf("%s: ghost helper %s contains stores", wn, hp.Name)
			}
		}
	}
}

func TestTraceEnabledGhostWritesTraceWordOnly(t *testing.T) {
	opts := ProfileOptions()
	opts.Sync.Trace = true
	inst := NewCC("urand", opts)
	for _, hp := range inst.Ghost.Helpers {
		if isa.ReadOnly(hp) {
			t.Errorf("trace-enabled ghost %s has no stores", hp.Name)
		}
		for i := range hp.Code {
			in := &hp.Code[i]
			if in.Op == isa.OpStore && !in.HasFlag(isa.FlagSync) {
				t.Errorf("%s: non-sync store at pc %d", hp.Name, i)
			}
		}
	}
}

func TestAllWorkloadNamesCount(t *testing.T) {
	names := AllWorkloadNames()
	if len(names) != 34 {
		t.Errorf("evaluation set has %d workloads, want 34 (paper §6)", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload %s", n)
		}
		seen[n] = true
		if _, err := Lookup(n); err != nil {
			t.Errorf("workload %s not registered: %v", n, err)
		}
	}
	if seen["tc.web"] {
		t.Error("tc.web should be the omitted combination (DESIGN.md §7)")
	}
}

func TestGAPWorkloadsHaveTargetAnnotations(t *testing.T) {
	// Every GAP baseline must carry at least one annotated target load
	// for the compiler-extraction path.
	for _, wn := range GAPWorkloadNames() {
		build, err := Lookup(wn)
		if err != nil {
			t.Fatal(err)
		}
		inst := build(ProfileOptions())
		found := false
		for i := range inst.Baseline.Main.Code {
			if inst.Baseline.Main.Code[i].HasFlag(isa.FlagTargetLoad) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: baseline has no annotated target loads", wn)
		}
	}
}

func TestMultiCoreVariantsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-core runs are slow")
	}
	for _, kernel := range MultiKernels {
		for _, tech := range []MultiTech{MultiBaseline, MultiSWPF, MultiSMT, MultiGhost} {
			t.Run(kernel+"/"+tech.String(), func(t *testing.T) {
				inst, err := NewMulti(kernel, "urand", 2, tech, ProfileOptions())
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.Cores = inst.Cores
				s := sim.New(cfg, inst.Mem)
				for c := range inst.Per {
					s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if err := inst.Check(inst.Mem); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestMultiUnknownKernel(t *testing.T) {
	if _, err := NewMulti("tc", "urand", 2, MultiBaseline, ProfileOptions()); err == nil {
		t.Error("tc multi-core variant should not exist")
	}
}
