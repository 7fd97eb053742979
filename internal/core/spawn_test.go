package core

import (
	"testing"

	"ghostthread/internal/isa"
	"ghostthread/internal/profile"
)

// nestReport profiles a three-loop nest by hand: a counted outer loop
// of outerIters iterations, a bottom-tested (do-while) middle loop
// running midPasses passes per entry, and the target loop inside it,
// whose load carries stall cycles out of total.
//
//	0  const
//	1  outer:  bge -> 9
//	2  mid:    store
//	3  inner:  bge -> 6
//	4          load (target)
//	5          jmp 3          inner backedge
//	6          bgt -> 2       mid backedge (runs on every pass)
//	7          addi
//	8          jmp 1          outer backedge
//	9  halt
func nestReport(outerIters, midPasses, stall, total int64) *profile.Report {
	prog := &isa.Program{
		Name: "nest",
		Code: []isa.Instr{
			{Op: isa.OpConst, Loop: -1},
			{Op: isa.OpBGE, Target: 9, Loop: 0},
			{Op: isa.OpStore, Loop: 1},
			{Op: isa.OpBGE, Target: 6, Loop: 2},
			{Op: isa.OpLoad, Loop: 2},
			{Op: isa.OpJmp, Target: 3, Loop: 2},
			{Op: isa.OpBGT, Target: 2, Loop: 1},
			{Op: isa.OpAddI, Loop: 0},
			{Op: isa.OpJmp, Target: 1, Loop: 0},
			{Op: isa.OpHalt, Loop: -1},
		},
		Loops: []isa.Loop{
			{ID: 0, Name: "outer", Func: "f", Parent: -1, Head: 1, End: 9, Backedge: 8},
			{ID: 1, Name: "mid", Func: "f", Parent: 0, Head: 2, End: 7, Backedge: 6},
			{ID: 2, Name: "inner", Func: "f", Parent: 1, Head: 3, End: 6, Backedge: 5},
		},
	}
	passes := outerIters * midPasses
	const innerPerPass = 50
	loads := passes * innerPerPass
	exec := []int64{1, outerIters + 1, passes, loads + passes, loads, loads, passes, outerIters, outerIters, 1}
	r := &profile.Report{
		Prog:        prog,
		TotalCycles: total,
		TotalStall:  stall,
		Instrs:      make([]profile.InstrStat, len(prog.Code)),
		Loops:       make([]profile.LoopStat, len(prog.Loops)),
		FuncStall:   map[string]int64{"f": stall},
	}
	for pc, in := range prog.Code {
		r.Instrs[pc] = profile.InstrStat{PC: pc, Op: in.Op, Executions: exec[pc], LoopID: int(in.Loop)}
	}
	r.Instrs[4].StallCycles = stall
	r.Instrs[4].CPI = float64(stall) / float64(loads)
	for id, l := range prog.Loops {
		r.Loops[id] = profile.LoopStat{Loop: l, Iterations: exec[l.Backedge], DynamicSize: 20}
	}
	r.Loops[2].StallCycles = stall
	r.Loops[2].LoadPCs = []int{4}
	return r
}

// TestSpawnRegion pins the spawn-region rule: the innermost enclosing
// loop whose average entry covers MORE than MinTaskCoverage of the
// profiled cycles, else the outermost loop.
func TestSpawnRegion(t *testing.T) {
	hp := DefaultHeuristicParams()
	const total, entries = 1_000_000, 4
	cases := []struct {
		stall     int64
		wantDepth int
		wantLoop  string
		wantCov   float64
	}{
		{640_000, 1, "mid", 0.16},   // 16% per entry: one spawn per entry of mid
		{600_000, 0, "outer", 0.60}, // exactly 15% is not more than 15%
		{100_000, 0, "outer", 0.10},
	}
	for _, c := range cases {
		r := nestReport(entries, 3, c.stall, total)
		ts := SelectTargets(r, hp)
		if len(ts) != 1 {
			t.Fatalf("stall %d: got %d targets, want 1", c.stall, len(ts))
		}
		tg := ts[0]
		if tg.SpawnDepth != c.wantDepth || tg.SpawnCoverage != c.wantCov {
			t.Errorf("stall %d: spawn depth %d coverage %v, want %d and %v",
				c.stall, tg.SpawnDepth, tg.SpawnCoverage, c.wantDepth, c.wantCov)
		}
		if got := r.Prog.Loops[SpawnLoop(r.Prog.Loops, tg)].Name; got != c.wantLoop {
			t.Errorf("stall %d: spawn loop %s, want %s", c.stall, got, c.wantLoop)
		}
	}
}

// TestSpawnRegionEntries checks that a loop's entries are its parent's
// iterations. The middle loop is bottom-tested: its header and backedge
// both run once per pass, so header minus backedge executions would read
// 0 entries (as cc_passes does) and make the per-entry coverage infinite.
func TestSpawnRegionEntries(t *testing.T) {
	r := nestReport(4, 3, 640_000, 1_000_000)
	if h, be := r.Instrs[2].Executions, r.Instrs[6].Executions; h != be {
		t.Fatalf("fixture: mid header runs %d times, backedge %d; want equal", h, be)
	}
	depth, cov := spawnRegion(r, 2, DefaultHeuristicParams())
	if depth != 1 || cov != 0.16 {
		t.Errorf("spawnRegion = depth %d coverage %v, want 1 and 0.16 (640k stall over 4 entries of 1M cycles)", depth, cov)
	}
	// An outermost loop is entered once.
	if got := entryCoverage(r, 0); got != 0.64 {
		t.Errorf("outer loop coverage per entry %v, want 0.64", got)
	}
}

// TestSpawnLoopZeroValue checks that a Target's zero SpawnDepth names the
// outermost enclosing loop, and that a depth past the target loop clamps
// to it.
func TestSpawnLoopZeroValue(t *testing.T) {
	loops := nestReport(4, 3, 0, 1_000_000).Prog.Loops
	for _, c := range []struct{ depth, want int }{{0, 0}, {1, 1}, {2, 2}, {5, 2}} {
		if got := SpawnLoop(loops, Target{LoopID: 2, SpawnDepth: c.depth}); got != c.want {
			t.Errorf("depth %d: spawn loop %d, want %d", c.depth, got, c.want)
		}
	}
	// A target loop nested in nothing is its own outermost loop.
	if got := SpawnLoop(loops, Target{LoopID: 0}); got != 0 {
		t.Errorf("outermost target loop: spawn loop %d, want 0", got)
	}
}
