package analysis_test

import (
	"strings"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/core"
	"ghostthread/internal/isa"
)

const (
	testMainCtr  = 9000
	testGhostCtr = 9001
)

// buildSyncGhost emits a canonical ghost thread — a counted prefetch loop
// carrying the figure-4(d) synchronization segment (trace store on, so
// ghost-safety also sees the one legal write) — exactly the shape both
// the manual workloads and the compiler extractor produce.
func buildSyncGhost(t *testing.T) (*isa.Program, analysis.CounterAddrs) {
	t.Helper()
	params := core.DefaultSyncParams()
	params.Trace = true
	ctr := core.Counters{MainAddr: testMainCtr, GhostAddr: testGhostCtr}
	b := isa.NewBuilder("test-ghost")
	st := core.NewSync(b, params, ctr)
	base := b.Imm(2000)
	zero := b.Imm(0)
	limit := b.Imm(512)
	b.CountedLoop("ghost_loop", zero, limit, func(i isa.Reg) {
		core.EmitSync(b, st, nil)
		a := b.Reg()
		b.Add(a, base, i)
		b.Prefetch(a, 0)
	})
	b.Halt()
	return b.MustBuild(), analysis.CounterAddrs{Main: testMainCtr, Ghost: testGhostCtr}
}

// mutateGhost builds the canonical ghost and rewrites every instruction
// matching pred, failing the test when nothing matches.
func mutateGhost(t *testing.T, pred func(in *isa.Instr) bool, rewrite func(in *isa.Instr)) (*isa.Program, analysis.CounterAddrs) {
	t.Helper()
	p, ctr := buildSyncGhost(t)
	n := 0
	for pc := range p.Code {
		if pred(&p.Code[pc]) {
			rewrite(&p.Code[pc])
			n++
		}
	}
	if n == 0 {
		t.Fatal("mutation matched no instruction")
	}
	return p, ctr
}

func toNop(in *isa.Instr) { *in = isa.Instr{Op: isa.OpNop, Flags: in.Flags, Loop: in.Loop} }

func hasFinding(fs []analysis.Finding, sev analysis.Severity, substr string) bool {
	for _, f := range fs {
		if f.Severity == sev && strings.Contains(f.Msg, substr) {
			return true
		}
	}
	return false
}

func TestSyncSegmentCleanGhost(t *testing.T) {
	p, ctr := buildSyncGhost(t)
	if fs := analysis.CheckSyncSegment(analysis.AnalyzeAddrPatterns(p), ctr); len(fs) != 0 {
		t.Fatalf("canonical ghost rejected by sync-segment lint: %v", fs)
	}
	if fs := analysis.CheckGhostSafety(analysis.AnalyzeAddrPatterns(p), ctr); len(fs) != 0 {
		t.Fatalf("canonical ghost rejected by ghost-safety: %v", fs)
	}
}

// TestSyncSegmentDefects breaks the canonical synchronization segment one
// structural property at a time and checks the lint names each defect.
func TestSyncSegmentDefects(t *testing.T) {
	sync := func(in *isa.Instr) bool { return in.HasFlag(isa.FlagSync) }
	cases := []struct {
		name    string
		pred    func(in *isa.Instr) bool
		rewrite func(in *isa.Instr)
		want    string
	}{
		{
			// Nop the BEQ(flag, 0) so the serialize runs unconditionally.
			name:    "unguarded serialize",
			pred:    func(in *isa.Instr) bool { return sync(in) && in.Op == isa.OpBEQ },
			rewrite: toNop,
			want:    "not guarded",
		},
		{
			// Nop the backoff decrement: the throttle loop's only marching
			// exit is gone, so a stalled main thread wedges the ghost.
			name:    "unbounded throttle",
			pred:    func(in *isa.Instr) bool { return sync(in) && in.Op == isa.OpAddI && in.Imm == -1 },
			rewrite: toNop,
			want:    "bounded backoff",
		},
		{
			// Degenerate mask (SyncFreq 1): the main counter is read every
			// iteration instead of every 2^k-th.
			name:    "missing mask gate",
			pred:    func(in *isa.Instr) bool { return sync(in) && in.Op == isa.OpAndI },
			rewrite: func(in *isa.Instr) { in.Imm = 0 },
			want:    "never gates",
		},
		{
			// Nop the local counter increment.
			name: "missing counter increment",
			pred: func(in *isa.Instr) bool {
				return sync(in) && in.Op == isa.OpAddI && in.Dst == in.Src1 && in.Imm == 1
			},
			rewrite: toNop,
			want:    "never increments",
		},
		{
			// Nop both loads of the main thread's counter word.
			name:    "missing main-counter load",
			pred:    func(in *isa.Instr) bool { return sync(in) && in.Op == isa.OpLoad },
			rewrite: toNop,
			want:    "never loads the main thread's counter",
		},
		{
			// Raise the Close-style offsets above TooFar.
			name: "inverted thresholds",
			pred: func(in *isa.Instr) bool {
				return sync(in) && in.Op == isa.OpAddI && in.Dst != in.Src1 &&
					in.Imm == core.DefaultSyncParams().Close
			},
			rewrite: func(in *isa.Instr) { in.Imm = core.DefaultSyncParams().TooFar + 100 },
			want:    "thresholds inverted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, ctr := mutateGhost(t, tc.pred, tc.rewrite)
			fs := analysis.CheckSyncSegment(analysis.AnalyzeAddrPatterns(p), ctr)
			if !hasFinding(fs, analysis.SevError, tc.want) {
				t.Fatalf("defect not reported: want error containing %q, got %v", tc.want, fs)
			}
		})
	}
}

func TestSyncSegmentAbsentWarns(t *testing.T) {
	b := isa.NewBuilder("nosync")
	base := b.Imm(2000)
	zero := b.Imm(0)
	limit := b.Imm(64)
	b.CountedLoop("l", zero, limit, func(i isa.Reg) {
		a := b.Reg()
		b.Add(a, base, i)
		b.Prefetch(a, 0)
	})
	b.Halt()
	p := b.MustBuild()
	fs := analysis.CheckSyncSegment(analysis.AnalyzeAddrPatterns(p), analysis.CounterAddrs{Main: testMainCtr, Ghost: testGhostCtr})
	if len(fs) != 1 || fs[0].Severity != analysis.SevWarn ||
		!strings.Contains(fs[0].Msg, "no synchronization segment") {
		t.Fatalf("unsynchronized ghost: got %v, want one warning about the missing segment", fs)
	}
}

func TestGhostSafetyRejectsWrites(t *testing.T) {
	ctr := analysis.CounterAddrs{Main: testMainCtr, Ghost: testGhostCtr}

	t.Run("constant store outside counter", func(t *testing.T) {
		b := isa.NewBuilder("rogue-const")
		base := b.Imm(2000)
		x := b.Imm(1)
		b.Store(base, 0, x)
		b.Halt()
		fs := analysis.CheckGhostSafety(analysis.AnalyzeAddrPatterns(b.MustBuild()), ctr)
		if !hasFinding(fs, analysis.SevError, "outside its private counter word") {
			t.Fatalf("rogue constant store not rejected: %v", fs)
		}
	})

	t.Run("ranged store", func(t *testing.T) {
		b := isa.NewBuilder("rogue-range")
		base := b.Imm(2000)
		x := b.Imm(1)
		zero := b.Imm(0)
		limit := b.Imm(8)
		b.CountedLoop("l", zero, limit, func(i isa.Reg) {
			a := b.Reg()
			b.Add(a, base, i)
			b.Store(a, 0, x)
		})
		b.Halt()
		fs := analysis.CheckGhostSafety(analysis.AnalyzeAddrPatterns(b.MustBuild()), ctr)
		if !hasFinding(fs, analysis.SevError, "unproven address") {
			t.Fatalf("ranged store not rejected: %v", fs)
		}
	})

	t.Run("atomic add", func(t *testing.T) {
		b := isa.NewBuilder("rogue-atomic")
		base := b.Imm(2000)
		one := b.Imm(1)
		b.AtomicAdd(b.Reg(), base, 0, one)
		b.Halt()
		fs := analysis.CheckGhostSafety(analysis.AnalyzeAddrPatterns(b.MustBuild()), ctr)
		if !hasFinding(fs, analysis.SevError, "atomic add") {
			t.Fatalf("rogue atomic add not rejected: %v", fs)
		}
	})

	t.Run("thread management", func(t *testing.T) {
		b := isa.NewBuilder("rogue-spawn")
		b.Spawn(0)
		b.Join()
		b.Halt()
		fs := analysis.CheckGhostSafety(analysis.AnalyzeAddrPatterns(b.MustBuild()), ctr)
		if !hasFinding(fs, analysis.SevError, "must not manage threads") {
			t.Fatalf("ghost spawn/join not rejected: %v", fs)
		}
	})

	t.Run("counter publish allowed", func(t *testing.T) {
		b := isa.NewBuilder("publish")
		ga := b.Imm(testGhostCtr)
		x := b.Imm(1)
		b.Store(ga, 0, x)
		b.Halt()
		if fs := analysis.CheckGhostSafety(analysis.AnalyzeAddrPatterns(b.MustBuild()), ctr); len(fs) != 0 {
			t.Fatalf("counter publish rejected: %v", fs)
		}
	})
}

// raceWriter builds a helper whose loop writes [base, base+n).
func raceWriter(name string, base, n int64, atomic bool) *isa.Program {
	b := isa.NewBuilder(name)
	ba := b.Imm(base)
	one := b.Imm(1)
	zero := b.Imm(0)
	lim := b.Imm(n)
	b.CountedLoop("w", zero, lim, func(i isa.Reg) {
		a := b.Reg()
		b.Add(a, ba, i)
		if atomic {
			b.AtomicAdd(b.Reg(), a, 0, one)
		} else {
			b.Store(a, 0, one)
		}
	})
	b.Halt()
	return b.MustBuild()
}

// raceMain builds a main program that spawns helper 0, writes
// [base, base+n) while it runs, then joins.
func raceMain(base, n int64, atomic bool) *isa.Program {
	b := isa.NewBuilder("race-main")
	ba := b.Imm(base)
	one := b.Imm(1)
	zero := b.Imm(0)
	lim := b.Imm(n)
	b.Spawn(0)
	b.CountedLoop("w", zero, lim, func(i isa.Reg) {
		a := b.Reg()
		b.Add(a, ba, i)
		if atomic {
			b.AtomicAdd(b.Reg(), a, 0, one)
		} else {
			b.Store(a, 0, one)
		}
	})
	b.JoinWait()
	b.Halt()
	return b.MustBuild()
}

func TestCheckRaces(t *testing.T) {
	t.Run("overlapping plain writes", func(t *testing.T) {
		fs := analysis.CheckRaces(analysis.AnalyzeAddrPatterns(raceMain(100, 50, false)), analyzeAll(raceWriter("h0", 120, 50, false)), false)
		if !hasFinding(fs, analysis.SevError, "races with helper 0") {
			t.Fatalf("overlapping writes not reported: %v", fs)
		}
	})

	t.Run("relaxed downgrades to warning", func(t *testing.T) {
		fs := analysis.CheckRaces(analysis.AnalyzeAddrPatterns(raceMain(100, 50, false)), analyzeAll(raceWriter("h0", 120, 50, false)), true)
		if len(fs) == 0 {
			t.Fatal("relaxed run reported nothing")
		}
		for _, f := range fs {
			if f.Severity != analysis.SevWarn {
				t.Fatalf("relaxed finding at severity %v: %v", f.Severity, f)
			}
		}
	})

	t.Run("partitioned ranges are clean", func(t *testing.T) {
		fs := analysis.CheckRaces(analysis.AnalyzeAddrPatterns(raceMain(100, 50, false)), analyzeAll(raceWriter("h0", 150, 50, false)), false)
		if len(fs) != 0 {
			t.Fatalf("statically partitioned ranges flagged: %v", fs)
		}
	})

	t.Run("atomic accumulation is clean", func(t *testing.T) {
		fs := analysis.CheckRaces(analysis.AnalyzeAddrPatterns(raceMain(100, 50, true)), analyzeAll(raceWriter("h0", 100, 50, true)), false)
		if len(fs) != 0 {
			t.Fatalf("atomic-vs-atomic flagged: %v", fs)
		}
	})

	t.Run("writes outside the active window are clean", func(t *testing.T) {
		b := isa.NewBuilder("race-seq")
		ba := b.Imm(100)
		one := b.Imm(1)
		b.Store(ba, 0, one) // before spawn
		b.Spawn(0)
		b.JoinWait()
		b.Store(ba, 0, one) // after join
		b.Halt()
		fs := analysis.CheckRaces(analysis.AnalyzeAddrPatterns(b.MustBuild()), analyzeAll(raceWriter("h0", 100, 1, false)), false)
		if len(fs) != 0 {
			t.Fatalf("pre-spawn/post-join writes flagged: %v", fs)
		}
	})

	t.Run("co-active helpers race each other", func(t *testing.T) {
		b := isa.NewBuilder("race-pair")
		b.Spawn(0)
		b.Spawn(1)
		b.JoinWait()
		b.Halt()
		fs := analysis.CheckRaces(analysis.AnalyzeAddrPatterns(b.MustBuild()), analyzeAll(
			raceWriter("h0", 100, 10, false),
			raceWriter("h1", 105, 10, false),
		), false)
		if !hasFinding(fs, analysis.SevError, "races with helper 1") {
			t.Fatalf("co-active helper overlap not reported: %v", fs)
		}
	})
}

func TestReportMinimality(t *testing.T) {
	b := isa.NewBuilder("fat")
	x := b.Imm(3)
	y := b.Imm(4)
	zero := b.Imm(0)
	lim := b.Imm(8)
	dead := b.Reg()
	b.Const(dead, 99) // never used
	inv := b.Reg()
	b.CountedLoop("l", zero, lim, func(i isa.Reg) {
		b.Add(inv, x, y) // operands defined outside the loop
		b.Prefetch(inv, 0)
	})
	b.Halt()
	fs := analysis.ReportMinimality(analysis.AnalyzeAddrPatterns(b.MustBuild()))
	if !hasFinding(fs, analysis.SevInfo, "dead instruction") {
		t.Errorf("dead constant not reported: %v", fs)
	}
	if !hasFinding(fs, analysis.SevInfo, "loop-invariant") {
		t.Errorf("loop-invariant add not reported: %v", fs)
	}
	if !hasFinding(fs, analysis.SevInfo, "slice profile") {
		t.Errorf("summary line missing: %v", fs)
	}
}

// analyzeAll analyses each program.
func analyzeAll(progs ...*isa.Program) []*analysis.Patterns {
	out := make([]*analysis.Patterns, len(progs))
	for i, p := range progs {
		out[i] = analysis.AnalyzeAddrPatterns(p)
	}
	return out
}
