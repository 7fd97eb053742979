package analysis_test

import (
	"strings"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/isa"
	"ghostthread/internal/workloads"
)

// buildPair emits a tiny main+ghost pair sharing one counted loop over a
// strided array, with the ghost's prefetch address produced by mutate
// (identity for the PROVED case).
func buildPair(t *testing.T, stride int64, mutate func(b *isa.Builder, addr isa.Reg)) (*isa.Program, *isa.Program) {
	t.Helper()
	const base = 4096

	mb := isa.NewBuilder("tv-main")
	mZero, mLim := mb.Reg(), mb.Reg()
	mAddr, mVal, mSum := mb.Reg(), mb.Reg(), mb.Reg()
	mb.Const(mZero, 0)
	mb.Const(mLim, 64)
	mb.Const(mSum, 0)
	mb.Spawn(0)
	mb.CountedLoop("walk", mZero, mLim, func(i isa.Reg) {
		mb.MulI(mAddr, i, stride)
		mb.Load(mVal, mAddr, base)
		mb.MarkTarget()
		mb.Add(mSum, mSum, mVal)
	})
	mb.Join()
	mb.Halt()
	main, err := mb.Build()
	if err != nil {
		t.Fatalf("main build: %v", err)
	}

	gb := isa.NewBuilder("tv-ghost")
	gZero, gLim, gAddr := gb.Reg(), gb.Reg(), gb.Reg()
	gb.Const(gZero, 0)
	gb.Const(gLim, 64)
	gb.CountedLoop("walk", gZero, gLim, func(i isa.Reg) {
		gb.MulI(gAddr, i, stride)
		mutate(gb, gAddr)
		gb.Prefetch(gAddr, base)
	})
	gb.Halt()
	ghost, err := gb.Build()
	if err != nil {
		t.Fatalf("ghost build: %v", err)
	}
	return main, ghost
}

func TestVerifyProvedIdenticalStream(t *testing.T) {
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {})
	vs := verify(main, ghost, 0)
	if len(vs) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(vs))
	}
	v := vs[0]
	if v.Status != analysis.Proved {
		t.Fatalf("status = %v, want PROVED (err=%q targets=%+v)", v.Status, v.Err, v.Targets)
	}
	if len(v.Targets) != 1 || v.Targets[0].GhostPC < 0 {
		t.Fatalf("target not matched: %+v", v.Targets)
	}
}

func TestVerifyProvedConstantLead(t *testing.T) {
	// Ghost runs a fixed 16-element lead: addr += 16*stride.
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {
		b.AddI(addr, addr, 16*8)
	})
	vs := verify(main, ghost, 0)
	v := vs[0]
	if v.Status != analysis.Proved {
		t.Fatalf("status = %v, want PROVED (targets=%+v)", v.Status, v.Targets)
	}
	if v.Targets[0].Lead != 16*8 {
		t.Fatalf("lead = %d, want %d", v.Targets[0].Lead, 16*8)
	}
}

func TestVerifyUnprovedWrongStride(t *testing.T) {
	// Deliberately broken slice: the ghost walks stride 16 while the main
	// thread demands stride 8 — the address streams diverge.
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {
		b.ShlI(addr, addr, 1) // addr = 16*i instead of 8*i
	})
	vs := verify(main, ghost, 0)
	v := vs[0]
	if v.Status != analysis.Unproved {
		t.Fatalf("status = %v, want UNPROVED (targets=%+v)", v.Status, v.Targets)
	}
	tv := v.Targets[0]
	if tv.Reason == "" || len(tv.CexPath) < 2 {
		t.Fatalf("missing counterexample: %+v", tv)
	}
	if tv.CexPath[0] != tv.TargetPC {
		t.Fatalf("cex path should start at the target load: %+v", tv)
	}
	if !strings.Contains(tv.Reason, "delta") {
		t.Fatalf("reason lacks delta: %q", tv.Reason)
	}
}

func TestVerifyNoSpawn(t *testing.T) {
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {})
	vs := verify(main, ghost, 3) // no helper 3
	if len(vs) != 1 || vs[0].Status != analysis.Unproved || vs[0].Err == "" {
		t.Fatalf("want structural UNPROVED for missing spawn, got %+v", vs[0])
	}
}

// TestVerifyRegistryGhosts proves every manual ghost slice shipped in the
// workload registry — the static half of the paper's safety argument.
func TestVerifyRegistryGhosts(t *testing.T) {
	for _, e := range workloads.Entries() {
		inst := e.Build(workloads.ProfileOptions())
		if inst.Ghost == nil {
			continue
		}
		for hid, helper := range inst.Ghost.Helpers {
			for _, v := range verify(inst.Ghost.Main, helper, hid) {
				if v.Status == analysis.Unproved {
					t.Errorf("%s helper %d spawn@%d: UNPROVED (err=%q)", e.Name, hid, v.SpawnPC, v.Err)
					for _, tv := range v.Targets {
						t.Errorf("  target@%d: %s main=%s ghost=%s reason=%s",
							tv.TargetPC, tv.Status, tv.MainExpr, tv.GhostExpr, tv.Reason)
					}
					continue
				}
				if len(v.Targets) == 0 && len(v.Auxiliary) == 0 {
					t.Errorf("%s helper %d spawn@%d: no proof obligations and no candidates (vacuous verdict)", e.Name, hid, v.SpawnPC)
				}
				t.Logf("%s helper %d spawn@%d: %s (%d targets, %d aux)",
					e.Name, hid, v.SpawnPC, v.Status, len(v.Targets), len(v.Auxiliary))
			}
		}
	}
}

// verify validates helper hid of main over fresh analyses of both.
func verify(main, ghost *isa.Program, hid int) []*analysis.Verdict {
	return analysis.VerifyHelperPatterns(analysis.AnalyzeAddrPatterns(main), analysis.AnalyzeAddrPatterns(ghost), hid)
}
