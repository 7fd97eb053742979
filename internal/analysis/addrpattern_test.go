package analysis_test

import (
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/isa"
)

// buildPatternZoo emits one program exercising every stride class, and
// returns the pc of each classified load by name:
//
//	invariant — load [cfg] where cfg is defined before the loop;
//	affine    — load [base + 2i];
//	computed  — load [base + (i^mix)] (xor breaks affinity, no load);
//	indirect  — load [vals + idx] where idx = load [index + i];
//	indirect2 — load [vals + idx2] where idx2 = load [vals + idx];
//	chase     — p = load [p], the list-walk recurrence;
//	twoarm    — load [base + k] where k += 1 on both arms of a branch:
//	            one step per iteration, affine with stride 1;
//	bumped    — load [base + c] where c += 1 on one arm only: no fixed
//	            stride, computed.
func buildPatternZoo(t *testing.T) (*isa.Program, map[string]int) {
	t.Helper()
	b := isa.NewBuilder("pattern-zoo")
	pcs := map[string]int{}

	cfgAddr := b.Imm(100)
	base := b.Imm(4096)
	index := b.Imm(8192)
	vals := b.Imm(16384)
	mix := b.Imm(0)
	p := b.Imm(24576)
	zero := b.Imm(0)
	limit := b.Imm(1024)
	k := b.Imm(0)
	c := b.Imm(0)

	b.CountedLoop("zoo", zero, limit, func(i isa.Reg) {
		inv := b.Reg()
		pcs["invariant"] = b.Load(inv, cfgAddr, 0)

		off := b.Reg()
		b.ShlI(off, i, 1)
		aAddr := b.Reg()
		b.Add(aAddr, base, off)
		av := b.Reg()
		pcs["affine"] = b.Load(av, aAddr, 0)

		h := b.Reg()
		b.Xor(h, i, mix)
		cAddr := b.Reg()
		b.Add(cAddr, base, h)
		cv := b.Reg()
		pcs["computed"] = b.Load(cv, cAddr, 0)

		iAddr := b.Reg()
		b.Add(iAddr, index, i)
		idx := b.Reg()
		b.Load(idx, iAddr, 0)
		vAddr := b.Reg()
		b.Add(vAddr, vals, idx)
		vv := b.Reg()
		pcs["indirect"] = b.Load(vv, vAddr, 0)

		v2Addr := b.Reg()
		b.Add(v2Addr, vals, vv)
		v2 := b.Reg()
		pcs["indirect2"] = b.Load(v2, v2Addr, 0)

		pcs["chase"] = b.Load(p, p, 0)

		odd := b.Reg()
		b.AndI(odd, i, 1)
		even, joined := b.NewLabel(), b.NewLabel()
		b.BEQ(odd, zero, even)
		b.AddI(k, k, 1)
		b.Jmp(joined)
		b.Bind(even)
		b.AddI(k, k, 1)
		b.Bind(joined)
		kAddr := b.Reg()
		b.Add(kAddr, base, k)
		kv := b.Reg()
		pcs["twoarm"] = b.Load(kv, kAddr, 0)

		skip := b.NewLabel()
		b.BEQ(odd, zero, skip)
		b.AddI(c, c, 1)
		b.Bind(skip)
		bAddr := b.Reg()
		b.Add(bAddr, base, c)
		bv := b.Reg()
		pcs["bumped"] = b.Load(bv, bAddr, 0)
	})
	b.Halt()
	return b.MustBuild(), pcs
}

func TestStrideClassification(t *testing.T) {
	prog, pcs := buildPatternZoo(t)
	pt := analysis.AnalyzeAddrPatterns(prog)

	want := map[string]analysis.StrideClass{
		"invariant": analysis.ClassInvariant,
		"affine":    analysis.ClassAffine,
		"computed":  analysis.ClassComputed,
		"indirect":  analysis.ClassIndirect,
		"indirect2": analysis.ClassIndirect,
		"chase":     analysis.ClassChase,
		"twoarm":    analysis.ClassAffine,
		"bumped":    analysis.ClassComputed,
	}
	for name, pc := range pcs {
		ap := pt.PatternAt(pc)
		if ap.Class != want[name] {
			t.Errorf("%s load at pc %d: class %s, want %s", name, pc, ap.Class, want[name])
		}
	}

	if ap := pt.PatternAt(pcs["affine"]); ap.Stride != 2 || !ap.BaseKnown || ap.Base != 4096 {
		t.Errorf("affine pattern: stride %d base (%v, %d), want stride 2 base (true, 4096)", ap.Stride, ap.BaseKnown, ap.Base)
	}
	if ap := pt.PatternAt(pcs["twoarm"]); ap.Stride != 1 {
		t.Errorf("two-armed counter: stride %d, want 1 (one increment per iteration, whichever arm runs)", ap.Stride)
	}
	if ap := pt.PatternAt(pcs["indirect"]); ap.IndirectDepth != 1 {
		t.Errorf("indirect depth %d, want 1", ap.IndirectDepth)
	}
	if ap := pt.PatternAt(pcs["indirect2"]); ap.IndirectDepth != 2 {
		t.Errorf("double-indirect depth %d, want 2", ap.IndirectDepth)
	}
	if ap := pt.PatternAt(pcs["invariant"]); ap.Loop < 0 {
		t.Errorf("invariant load should still report its loop, got %d", ap.Loop)
	}
}

// TestOuterCarriedIsNotChase pins the frontier-double-buffer fix: a value
// cycle rotated by the *outer* loop (cur/next buffer swap between BFS
// levels) must not turn the inner loop's indirect load into a pointer
// chase — the inner iterations are still independent.
func TestOuterCarriedIsNotChase(t *testing.T) {
	b := isa.NewBuilder("frontier-swap")
	cur := b.Imm(4096)
	next := b.Imm(8192)
	vals := b.Imm(16384)
	zero := b.Imm(0)
	olim := b.Imm(16)
	ilim := b.Imm(256)

	var loadPC int
	b.CountedLoop("levels", zero, olim, func(_ isa.Reg) {
		tmp := b.Reg()
		b.Mov(tmp, cur)
		b.Mov(cur, next)
		b.Mov(next, tmp)
		b.CountedLoop("frontier", zero, ilim, func(i isa.Reg) {
			fAddr := b.Reg()
			b.Add(fAddr, cur, i)
			idx := b.Reg()
			b.Load(idx, fAddr, 0)
			vAddr := b.Reg()
			b.Add(vAddr, vals, idx)
			v := b.Reg()
			loadPC = b.Load(v, vAddr, 0)
		})
	})
	b.Halt()
	prog := b.MustBuild()

	pt := analysis.AnalyzeAddrPatterns(prog)
	ap := pt.PatternAt(loadPC)
	if ap.Class != analysis.ClassIndirect {
		t.Fatalf("inner load under an outer-loop value rotation: class %s, want %s", ap.Class, analysis.ClassIndirect)
	}
}

// TestNestedRecurrenceChases is the converse: a recurrence of a loop
// nested inside the operand's loop does chase. The outer loop's read
// lands where the inner list walk ended (triangle counting reads the
// slot its binary search found), so every outer iteration waits on the
// walk — a pointer chase, not an indirect load.
func TestNestedRecurrenceChases(t *testing.T) {
	b := isa.NewBuilder("walk-then-read")
	head := b.Imm(4096)
	zero := b.Imm(0)
	olim := b.Imm(64)
	ilim := b.Imm(8)

	var readPC int
	b.CountedLoop("outer", zero, olim, func(_ isa.Reg) {
		p := b.Reg()
		b.Mov(p, head)
		b.CountedLoop("walk", zero, ilim, func(_ isa.Reg) {
			b.Load(p, p, 0)
		})
		v := b.Reg()
		readPC = b.Load(v, p, 1)
	})
	b.Halt()
	prog := b.MustBuild()

	pt := analysis.AnalyzeAddrPatterns(prog)
	if ap := pt.PatternAt(readPC); ap.Class != analysis.ClassChase {
		t.Fatalf("outer-loop read of an inner walk's end: class %s, want %s", ap.Class, analysis.ClassChase)
	}
}

// TestClassEdgeShapes pins three shapes at the edges of the classes:
// an access after an inner loop reading that loop's final counter does
// not step with any loop enclosing it, so it is computed, not affine; a
// counter mixed with a hash of itself is not a stream; and an address
// fed by an atomic's returned value (a work-queue ticket) is indirect.
func TestClassEdgeShapes(t *testing.T) {
	cases := []struct {
		name  string
		want  analysis.StrideClass
		depth int
		// body emits one outer iteration and returns the classified pc.
		body func(b *isa.Builder, i, base, zero isa.Reg) int
	}{
		{"after inner loop", analysis.ClassComputed, 0, func(b *isa.Builder, _, base, zero isa.Reg) int {
			lim := b.Imm(8)
			var j isa.Reg
			b.CountedLoop("inner", zero, lim, func(jr isa.Reg) { j = jr })
			addr, v := b.Reg(), b.Reg()
			b.Add(addr, base, j)
			return b.Load(v, addr, 0)
		}},
		{"counter plus its hash", analysis.ClassComputed, 0, func(b *isa.Builder, i, base, _ isa.Reg) int {
			h, addr, v := b.Reg(), b.Reg(), b.Reg()
			b.XorI(h, i, 0x55)
			b.Add(addr, base, h)
			b.Add(addr, addr, i)
			return b.Load(v, addr, 0)
		}},
		{"atomic ticket", analysis.ClassIndirect, 1, func(b *isa.Builder, _, base, _ isa.Reg) int {
			q, one := b.Imm(100), b.Imm(1)
			idx, addr, v := b.Reg(), b.Reg(), b.Reg()
			b.AtomicAdd(idx, q, 0, one)
			b.Add(addr, base, idx)
			return b.Load(v, addr, 0)
		}},
	}
	for _, c := range cases {
		b := isa.NewBuilder(c.name)
		base := b.Imm(4096)
		zero := b.Imm(0)
		limit := b.Imm(64)
		var pc int
		b.CountedLoop("outer", zero, limit, func(i isa.Reg) { pc = c.body(b, i, base, zero) })
		b.Halt()
		ap := analysis.AnalyzeAddrPatterns(b.MustBuild()).PatternAt(pc)
		if ap.Class != c.want || ap.IndirectDepth != c.depth {
			t.Errorf("%s: class %s depth %d, want %s depth %d", c.name, ap.Class, ap.IndirectDepth, c.want, c.depth)
		}
	}
}

// TestNoUnknownClassInZoo checks the taxonomy is total over every memory
// operand of the zoo program, including addresses no case was designed
// for.
func TestNoUnknownClassInZoo(t *testing.T) {
	prog, _ := buildPatternZoo(t)
	pt := analysis.AnalyzeAddrPatterns(prog)
	for pc := range prog.Code {
		op := prog.Code[pc].Op
		if op != isa.OpLoad && op != isa.OpStore && op != isa.OpPrefetch && op != isa.OpAtomicAdd {
			continue
		}
		ap := pt.PatternAt(pc)
		switch ap.Class {
		case analysis.ClassInvariant, analysis.ClassAffine, analysis.ClassComputed,
			analysis.ClassIndirect, analysis.ClassChase:
		default:
			t.Errorf("pc %d: unclassified operand (class %d)", pc, int(ap.Class))
		}
	}
}
