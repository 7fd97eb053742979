package analysis_test

import (
	"slices"
	"strings"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/isa"
)

// instr builds a hand-assembled instruction with Loop unset (-1).
func instr(op isa.Op, dst, s1, s2 isa.Reg, imm int64, target int32) isa.Instr {
	return isa.Instr{Op: op, Dst: dst, Src1: s1, Src2: s2, Imm: imm, Target: target, Loop: -1}
}

func TestBuildCFGLinear(t *testing.T) {
	p := &isa.Program{Name: "linear", Code: []isa.Instr{
		instr(isa.OpConst, 1, 0, 0, 5, 0),
		instr(isa.OpAddI, 1, 1, 0, 1, 0),
		instr(isa.OpHalt, 0, 0, 0, 0, 0),
	}}
	g := analysis.BuildCFG(p)
	if len(g.Blocks) != 1 {
		t.Fatalf("linear program: got %d blocks, want 1", len(g.Blocks))
	}
	b := g.Blocks[0]
	if b.Start != 0 || b.End != 3 || len(b.Succs) != 0 {
		t.Fatalf("block = [%d,%d) succs=%v, want [0,3) with no successors", b.Start, b.End, b.Succs)
	}
	if !g.ReachablePC(2) {
		t.Fatal("halt unreachable in straight-line code")
	}
}

func TestBuildCFGDiamond(t *testing.T) {
	// 0: beq r1,r2 -> 3        block A [0,1)
	// 1: addi r3 += 1          block B [1,3)
	// 2: jmp  -> 4
	// 3: addi r4 += 1          block C [3,4)
	// 4: halt                  block D [4,5)
	p := &isa.Program{Name: "diamond", Code: []isa.Instr{
		instr(isa.OpBEQ, 0, 1, 2, 0, 3),
		instr(isa.OpAddI, 3, 3, 0, 1, 0),
		instr(isa.OpJmp, 0, 0, 0, 0, 4),
		instr(isa.OpAddI, 4, 4, 0, 1, 0),
		instr(isa.OpHalt, 0, 0, 0, 0, 0),
	}}
	g := analysis.BuildCFG(p)
	if len(g.Blocks) != 4 {
		t.Fatalf("diamond: got %d blocks, want 4", len(g.Blocks))
	}
	a, bb, c, d := g.BlockOf[0], g.BlockOf[1], g.BlockOf[3], g.BlockOf[4]

	// Conditional successors are ordered taken-first so edge refinement
	// knows which side is which.
	if succs := g.Blocks[a].Succs; len(succs) != 2 || succs[0] != c || succs[1] != bb {
		t.Fatalf("entry succs = %v, want [taken=%d, fallthrough=%d]", succs, c, bb)
	}
	if preds := g.Blocks[d].Preds; len(preds) != 2 {
		t.Fatalf("join preds = %v, want two", preds)
	}

	idom := g.Dominators()
	for _, blk := range []int{bb, c, d} {
		if idom[blk] != a {
			t.Errorf("idom[%d] = %d, want entry %d", blk, idom[blk], a)
		}
	}
	if !analysis.Dominates(idom, a, d) {
		t.Error("entry must dominate the join block")
	}
	if analysis.Dominates(idom, bb, d) || analysis.Dominates(idom, c, d) {
		t.Error("neither diamond arm may dominate the join block")
	}
}

func TestNaturalLoopsNested(t *testing.T) {
	b := isa.NewBuilder("nested")
	zero := b.Imm(0)
	nOuter := b.Imm(4)
	nInner := b.Imm(8)
	acc := b.Imm(0)
	b.CountedLoop("outer", zero, nOuter, func(i isa.Reg) {
		b.CountedLoop("inner", zero, nInner, func(j isa.Reg) {
			b.Add(acc, acc, j)
		})
	})
	b.Halt()
	p := b.MustBuild()

	pt := analysis.AnalyzeAddrPatterns(p)
	f := pt.F
	if len(f.Loops) != 2 {
		t.Fatalf("got %d natural loops, want 2", len(f.Loops))
	}
	if len(f.Irreducible) != 0 {
		t.Fatalf("builder output flagged irreducible: %v", f.Irreducible)
	}
	inner, outer := 0, 1
	if len(f.Loops[inner].Blocks) > len(f.Loops[outer].Blocks) {
		inner, outer = outer, inner
	}
	if f.Loops[inner].Parent != outer {
		t.Errorf("inner loop parent = %d, want %d", f.Loops[inner].Parent, outer)
	}
	if f.Loops[outer].Parent != -1 {
		t.Errorf("outer loop parent = %d, want -1", f.Loops[outer].Parent)
	}
	if d := f.Depth(f.Loops[inner].Header); d != 2 {
		t.Errorf("inner header depth = %d, want 2", d)
	}

	// The annotation cross-check must accept structured builder output and
	// record the annotation IDs on the natural loops.
	if fs := analysis.CrossCheckLoops(pt); len(fs) != 0 {
		t.Fatalf("cross-check rejected builder output: %v", fs)
	}
	for i := range f.Loops {
		if f.Loops[i].Annotated < 0 {
			t.Errorf("natural loop %d not matched to an annotation", i)
		}
	}
}

func TestNaturalLoopsIrreducible(t *testing.T) {
	// Two blocks jumping at each other, both entered from the entry
	// block: the classic irreducible region no structured builder emits.
	// 0: beq r1,r0 -> 4        A
	// 1: addi r2 += 1          B
	// 2: bne r2,r3 -> 4
	// 3: halt
	// 4: addi r5 += 1          C
	// 5: bne r5,r3 -> 1
	// 6: halt
	p := &isa.Program{Name: "irreducible", Code: []isa.Instr{
		instr(isa.OpBEQ, 0, 1, 0, 0, 4),
		instr(isa.OpAddI, 2, 2, 0, 1, 0),
		instr(isa.OpBNE, 0, 2, 3, 0, 4),
		instr(isa.OpHalt, 0, 0, 0, 0, 0),
		instr(isa.OpAddI, 5, 5, 0, 1, 0),
		instr(isa.OpBNE, 0, 5, 3, 0, 1),
		instr(isa.OpHalt, 0, 0, 0, 0, 0),
	}}
	pt := analysis.AnalyzeAddrPatterns(p)
	if len(pt.F.Irreducible) == 0 {
		t.Fatal("irreducible retreating edge not detected")
	}
	found := false
	for _, fd := range analysis.CrossCheckLoops(pt) {
		if fd.Severity == analysis.SevWarn && strings.Contains(fd.Msg, "irreducible") {
			found = true
		}
	}
	if !found {
		t.Fatal("cross-check did not warn about irreducible control flow")
	}
}

func TestCrossCheckStaleAnnotation(t *testing.T) {
	// A loop annotation whose recorded backedge is a forward-reachable
	// branch that is NOT a natural back edge (its target does not
	// dominate it): the cross-check must reject it.
	// 0: beq r1,r0 -> 3        A
	// 1: addi r2 += 1          B
	// 2: jmp -> 4
	// 3: addi r3 += 1          C
	// 4: beq r4,r0 -> 1        D ("backedge" to B, but C also reaches D)
	// 5: halt
	p := &isa.Program{Name: "stale", Code: []isa.Instr{
		instr(isa.OpBEQ, 0, 1, 0, 0, 3),
		instr(isa.OpAddI, 2, 2, 0, 1, 0),
		instr(isa.OpJmp, 0, 0, 0, 0, 4),
		instr(isa.OpAddI, 3, 3, 0, 1, 0),
		instr(isa.OpBEQ, 0, 4, 0, 0, 1),
		instr(isa.OpHalt, 0, 0, 0, 0, 0),
	}}
	p.Loops = []isa.Loop{{ID: 0, Name: "stale", Parent: -1, Head: 1, End: 5, Backedge: 4}}
	found := false
	for _, fd := range analysis.CrossCheckLoops(analysis.AnalyzeAddrPatterns(p)) {
		if fd.Severity == analysis.SevError && strings.Contains(fd.Msg, "not a natural-loop back edge") {
			found = true
		}
	}
	if !found {
		t.Fatal("stale loop annotation not rejected")
	}
}

func TestCrossCheckBackedgeOutsideBody(t *testing.T) {
	// Annotated body [0,2) but the recorded backedge targets pc 2.
	p := &isa.Program{Name: "escape", Code: []isa.Instr{
		instr(isa.OpAddI, 1, 1, 0, 1, 0),
		instr(isa.OpBNE, 0, 1, 2, 0, 2),
		instr(isa.OpHalt, 0, 0, 0, 0, 0),
	}}
	p.Loops = []isa.Loop{{ID: 0, Name: "escape", Parent: -1, Head: 0, End: 2, Backedge: 1}}
	found := false
	for _, fd := range analysis.CrossCheckLoops(analysis.AnalyzeAddrPatterns(p)) {
		if fd.Severity == analysis.SevError && strings.Contains(fd.Msg, "outside body") {
			found = true
		}
	}
	if !found {
		t.Fatal("backedge escaping the annotated body not rejected")
	}
}

func TestReachingDefsAndLiveness(t *testing.T) {
	b := isa.NewBuilder("defuse")
	r1, r2, r3, r4 := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	zero := b.Imm(0)
	c1 := b.Const(r1, 5)
	b.Const(r2, 7)
	add1 := b.Add(r3, r1, r2)
	l := b.NewLabel()
	b.BEQ(r3, zero, l)
	c2 := b.Const(r1, 9)
	b.Bind(l)
	add2 := b.Add(r4, r1, r3)
	b.Halt()
	p := b.MustBuild()

	pt := analysis.AnalyzeAddrPatterns(p)
	g := pt.G

	// Both definitions of r1 reach the join through the phi.
	if defs, want := pt.S.DefsOf(add2, r1), []int{c1, c2}; !slices.Equal(defs, want) {
		t.Fatalf("defs of r1 at join = %v, want %v", defs, want)
	}
	// The first definition feeds the add before the branch directly and
	// the join add through the phi.
	if uses, want := pt.S.Uses(c1), []int{add1, add2}; !slices.Equal(uses, want) {
		t.Fatalf("uses of first def = %v, want %v", uses, want)
	}
	// r3 has one definition on every path.
	if defs, want := pt.S.DefsOf(add2, r3), []int{add1}; !slices.Equal(defs, want) {
		t.Fatalf("defs of r3 at join = %v, want %v", defs, want)
	}
	// add2's value is read by nothing.
	if uses := pt.S.Uses(add2); uses != nil {
		t.Fatalf("uses of the join add = %v, want none", uses)
	}

	// Live-out of the redefinition block (the union of its successors'
	// live-in sets): r1 and r3 feed the join add, r2 is consumed before
	// the branch and must be dead.
	liveIn := analysis.LiveIn(g)
	blk := g.BlockOf[c2]
	var liveOut analysis.RegSet
	for _, s := range g.Blocks[blk].Succs {
		liveOut.Union(&liveIn[s])
	}
	if !liveOut.Has(r1) || !liveOut.Has(r3) {
		t.Errorf("r1/r3 not live out of the redefinition block")
	}
	if liveOut.Has(r2) {
		t.Errorf("r2 live out of the redefinition block despite no later use")
	}
}

func TestValuesCountedLoopAddressBounds(t *testing.T) {
	// for i = 0..9: store base+i — the store's abstract address must be
	// exactly [base, base+9] even after widening, because the loop bound
	// refines the induction variable on the body edge.
	b := isa.NewBuilder("bounds")
	base := b.Imm(100)
	x := b.Imm(7)
	zero := b.Imm(0)
	limit := b.Imm(10)
	var storePC int
	b.CountedLoop("l", zero, limit, func(i isa.Reg) {
		a := b.Reg()
		b.Add(a, base, i)
		storePC = b.Store(a, 0, x)
	})
	b.Halt()
	p := b.MustBuild()

	v := analysis.AnalyzeValues(analysis.BuildCFG(p))
	if !v.ReachedPC(storePC) {
		t.Fatal("loop body not reached by abstract interpretation")
	}
	if got, want := v.MemAddr(storePC), (analysis.Interval{Lo: 100, Hi: 109}); got != want {
		t.Fatalf("store address interval = [%d,%d], want [%d,%d]", got.Lo, got.Hi, want.Lo, want.Hi)
	}
}
