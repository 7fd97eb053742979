package analysis_test

import (
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/isa"
)

// buildStridedStores emits one loop with two stores at base + stride·i +
// offA / offB (base a compile-time constant) and returns their pcs.
func buildStridedStores(t *testing.T, name string, base, stride, offA, offB int64) (*isa.Program, int, int) {
	t.Helper()
	b := isa.NewBuilder(name)
	baseR := b.Imm(base)
	zero := b.Imm(0)
	limit := b.Imm(512)
	v := b.Imm(7)
	var pcA, pcB int
	b.CountedLoop("stores", zero, limit, func(i isa.Reg) {
		off := b.Reg()
		b.MulI(off, i, stride)
		addr := b.Reg()
		b.Add(addr, baseR, off)
		pcA = b.Store(addr, offA, v)
		pcB = b.Store(addr, offB, v)
	})
	b.Halt()
	return b.MustBuild(), pcA, pcB
}

// TestMayAliasConstProgressions exercises rule 2: constant-base affine
// progressions compared by residue modulo the stride gcd.
func TestMayAliasConstProgressions(t *testing.T) {
	// A[2i] vs A[2i+1]: residues 0 and 1 mod 2 — provably disjoint.
	prog, pcA, pcB := buildStridedStores(t, "interleaved", 4096, 2, 0, 1)
	pt := analysis.AnalyzeAddrPatterns(prog)
	if analysis.MayAlias(pt, pcA, pt, pcB) {
		t.Error("A[2i] and A[2i+1] reported as may-alias; residue rule should separate them")
	}

	// A[2i] vs A[2i+2]: same residue class — they do meet (at i, i+1).
	prog2, pcA2, pcB2 := buildStridedStores(t, "overlapping", 4096, 2, 0, 2)
	pt2 := analysis.AnalyzeAddrPatterns(prog2)
	if !analysis.MayAlias(pt2, pcA2, pt2, pcB2) {
		t.Error("A[2i] and A[2i+2] reported as disjoint; they collide across iterations")
	}

	// Cross-program: helper 0 writes even words, helper 1 odd words of the
	// same constant-based array — rule 2 works across register files.
	h0, pcE, _ := buildStridedStores(t, "h0", 4096, 2, 0, 0)
	h1, pcO, _ := buildStridedStores(t, "h1", 4096, 2, 1, 1)
	pt0 := analysis.AnalyzeAddrPatterns(h0)
	pt1 := analysis.AnalyzeAddrPatterns(h1)
	if analysis.MayAlias(pt0, pcE, pt1, pcO) {
		t.Error("even/odd interleaved streams across programs reported as may-alias")
	}
}

// TestMayAliasSymbolicBase exercises rule 3: a live-in (never-defined)
// base register is unknown to the interval and constant-progression
// rules, but identical symbolic parts cancel within one program.
func TestMayAliasSymbolicBase(t *testing.T) {
	b := isa.NewBuilder("symbolic")
	baseR := isa.Reg(30) // live-in: spawn-copied, never defined here
	b.ReserveRegs(31)
	zero := b.Imm(0)
	limit := b.Imm(512)
	v := b.Imm(7)
	var pcA, pcB int
	b.CountedLoop("stores", zero, limit, func(i isa.Reg) {
		off := b.Reg()
		b.MulI(off, i, 2)
		addr := b.Reg()
		b.Add(addr, baseR, off)
		pcA = b.Store(addr, 0, v)
		pcB = b.Store(addr, 1, v)
	})
	b.Halt()
	prog := b.MustBuild()
	pt := analysis.AnalyzeAddrPatterns(prog)

	if analysis.MayAlias(pt, pcA, pt, pcB) {
		t.Error("base[2i] and base[2i+1] with a shared symbolic base reported as may-alias")
	}

	// The same pair compared across two distinct analyses must stay
	// may-alias: rule 3 is same-analysis only (two register files need not
	// hold the same base value).
	pt2 := analysis.AnalyzeAddrPatterns(prog)
	if !analysis.MayAlias(pt, pcA, pt2, pcB) {
		t.Error("symbolic bases cancelled across analyses; rule 3 must not apply cross-program")
	}
}

// TestRaceCheckerAliasUpgrade pins the alias upgrade on the race checker:
// two helpers writing interleaved even/odd streams of one array overlap
// as intervals (a false positive under IntervalOnly) but are separated by
// the progression rule — and the upgrade only ever removes findings.
func TestRaceCheckerAliasUpgrade(t *testing.T) {
	h0, _, _ := buildStridedStores(t, "even-writer", 4096, 2, 0, 0)
	h1, _, _ := buildStridedStores(t, "odd-writer", 4096, 2, 1, 1)

	mb := isa.NewBuilder("spawner")
	mb.Spawn(0)
	mb.Spawn(1)
	mb.JoinWait()
	mb.Halt()
	main := analysis.AnalyzeAddrPatterns(mb.MustBuild())
	helpers := analyzeAll(h0, h1)

	interval := analysis.CheckRacesOpt(main, helpers, false, analysis.RaceOptions{IntervalOnly: true})
	if len(interval) == 0 {
		t.Fatal("interval-only race check found nothing; the streams should overlap as intervals")
	}
	aliased := analysis.CheckRaces(main, helpers, false)
	if len(aliased) != 0 {
		t.Errorf("alias-aware race check still reports %d findings on provably interleaved streams: %v", len(aliased), aliased)
	}
}

// TestMayAliasRefusals pins the cases where the progression rules must
// not fire although the two addresses differ by a constant: a base
// reloaded every iteration or chosen by a branch is not stable, so it
// need not cancel between dynamic instances, and a counter whose sync
// skip was erased is not exact (the skip moves it off its residue).
func TestMayAliasRefusals(t *testing.T) {
	cases := []struct {
		name string
		// body emits one iteration and returns the address register both
		// stores use; k is a counter set to 4096 before the loop.
		body func(b *isa.Builder, i, k, zero isa.Reg) isa.Reg
	}{
		{"reloaded base", func(b *isa.Builder, i, _, _ isa.Reg) isa.Reg {
			cfg := b.Imm(100)
			base := b.Reg()
			b.Load(base, cfg, 0)
			off := b.Reg()
			b.MulI(off, i, 2)
			addr := b.Reg()
			b.Add(addr, base, off)
			return addr
		}},
		{"branch-chosen base", func(b *isa.Builder, i, _, zero isa.Reg) isa.Reg {
			flag, base := b.Reg(), b.Reg()
			b.Load(flag, i, 0)
			other, joined := b.NewLabel(), b.NewLabel()
			b.BEQ(flag, zero, other)
			b.Mov(base, isa.Reg(30))
			b.Jmp(joined)
			b.Bind(other)
			b.Mov(base, isa.Reg(31))
			b.Bind(joined)
			off := b.Reg()
			b.MulI(off, i, 2)
			addr := b.Reg()
			b.Add(addr, base, off)
			return addr
		}},
		{"erased skip", func(b *isa.Builder, i, k, zero isa.Reg) isa.Reg {
			b.AddI(k, k, 2)
			low, done := b.Reg(), b.NewLabel()
			b.AndI(low, i, 7)
			b.BNE(low, zero, done)
			skip := b.AddI(k, k, 1)
			b.FlagRange(skip, skip+1, isa.FlagSync)
			b.FlagRange(skip, skip+1, isa.FlagSyncSkip)
			b.Bind(done)
			return k
		}},
	}
	for _, c := range cases {
		b := isa.NewBuilder(c.name)
		b.ReserveRegs(32)
		zero := b.Imm(0)
		limit := b.Imm(512)
		v := b.Imm(7)
		k := b.Imm(4096)
		var pcA, pcB int
		b.CountedLoop("stores", zero, limit, func(i isa.Reg) {
			addr := c.body(b, i, k, zero)
			pcA = b.Store(addr, 0, v)
			pcB = b.Store(addr, 1, v)
		})
		b.Halt()
		pt := analysis.AnalyzeAddrPatterns(b.MustBuild())
		if !analysis.MayAlias(pt, pcA, pt, pcB) {
			t.Errorf("%s: base[0] and base[1] reported disjoint", c.name)
		}
	}
}

// TestRaceCheckerTwoArmedCounter pins the stride of a counter bumped on
// both arms of a branch: helper A stores to 4096+k with k += 1 on either
// arm, so it writes every word from 4096 up, and helper B's odd stream
// 4096+2i+1 meets it. Summing both arms into one step of 2 would put A
// on the even words only and hide the race.
func TestRaceCheckerTwoArmedCounter(t *testing.T) {
	ab := isa.NewBuilder("two-armed-writer")
	base := ab.Imm(4096)
	zero := ab.Imm(0)
	limit := ab.Imm(512)
	v := ab.Imm(7)
	k := ab.Imm(0)
	ab.CountedLoop("a", zero, limit, func(i isa.Reg) {
		odd := ab.Reg()
		ab.AndI(odd, i, 1)
		even, joined := ab.NewLabel(), ab.NewLabel()
		ab.BEQ(odd, zero, even)
		ab.AddI(k, k, 1)
		ab.Jmp(joined)
		ab.Bind(even)
		ab.AddI(k, k, 1)
		ab.Bind(joined)
		addr := ab.Reg()
		ab.Add(addr, base, k)
		ab.Store(addr, 0, v)
	})
	ab.Halt()
	hA := ab.MustBuild()
	hB, _, _ := buildStridedStores(t, "odd-writer", 4096, 2, 1, 1)

	mb := isa.NewBuilder("spawner")
	mb.Spawn(0)
	mb.Spawn(1)
	mb.JoinWait()
	mb.Halt()
	if fs := analysis.CheckRaces(analysis.AnalyzeAddrPatterns(mb.MustBuild()), analyzeAll(hA, hB), false); len(fs) == 0 {
		t.Error("race check missed helper A's every-word stream meeting helper B's odd stream")
	}
}

// TestMinimalityAliasHoistable pins the alias-driven minimality upgrade:
// a loop-invariant load in the ghost whose word no main-thread store may
// alias is flagged hoistable; the same load aliased by a store is not.
func TestMinimalityAliasHoistable(t *testing.T) {
	buildPair := func(storeAddr int64) (*isa.Program, *isa.Program) {
		gb := isa.NewBuilder("ghost")
		cfg := gb.Imm(100)
		base := gb.Imm(4096)
		zero := gb.Imm(0)
		limit := gb.Imm(256)
		gb.CountedLoop("g", zero, limit, func(i isa.Reg) {
			n := gb.Reg()
			gb.Load(n, cfg, 0) // invariant address: hoistable unless stored to
			a := gb.Reg()
			gb.Add(a, base, i)
			gb.Prefetch(a, 0)
			_ = n
		})
		gb.Halt()

		mb := isa.NewBuilder("main")
		sa := mb.Imm(storeAddr)
		v := mb.Imm(1)
		mz := mb.Imm(0)
		ml := mb.Imm(256)
		mb.CountedLoop("m", mz, ml, func(_ isa.Reg) {
			mb.Store(sa, 0, v)
		})
		mb.Halt()
		return gb.MustBuild(), mb.MustBuild()
	}

	hasHoist := func(fs []analysis.Finding) bool {
		for _, f := range fs {
			if f.Checker == "minimality-alias" {
				if f.Severity != analysis.SevInfo {
					t.Errorf("minimality-alias finding with severity %v, want info", f.Severity)
				}
				return true
			}
		}
		return false
	}

	ghost, mainFar := buildPair(900) // store elsewhere: load is hoistable
	if !hasHoist(analysis.ReportMinimalityVs(analysis.AnalyzeAddrPatterns(ghost), analysis.AnalyzeAddrPatterns(mainFar))) {
		t.Error("invariant load with no aliasing store not flagged hoistable")
	}
	ghost2, mainHit := buildPair(100) // store to the loaded word: must stay
	if hasHoist(analysis.ReportMinimalityVs(analysis.AnalyzeAddrPatterns(ghost2), analysis.AnalyzeAddrPatterns(mainHit))) {
		t.Error("invariant load the main thread stores to was flagged hoistable")
	}
}
