package analysis

import (
	"fmt"

	"ghostthread/internal/isa"
)

// StrideClass is the address-pattern taxonomy of a memory operand,
// following the classification helper-thread prefetching work applies to
// delinquent loads: how the address evolves across iterations of the
// innermost loop containing the access decides which prefetch strategy
// (and how much ghost-thread benefit) is available.
type StrideClass int

// Stride classes, ordered roughly by increasing ghost-thread value.
const (
	// ClassInvariant: the address does not change across iterations.
	ClassInvariant StrideClass = iota
	// ClassAffine: base + Σ coeff·IV — a strided stream; computable
	// arbitrarily far ahead, but also the easiest case for plain
	// software prefetching.
	ClassAffine
	// ClassComputed: a pure non-affine function of induction variables
	// (e.g. A[hash(i) & mask]) — not strided, but still computable ahead
	// of the main thread without touching memory.
	ClassComputed
	// ClassIndirect: the address chain contains at least one load
	// (A[B[i]] and deeper) — the delinquent-load shape ghost threading
	// targets: hardware prefetchers cannot follow it, a p-slice can.
	ClassIndirect
	// ClassChase: the address depends on a loop-carried, non-induction
	// recurrence (list walking, binary search) — the next address needs
	// the previous iteration's result, so no helper can run ahead.
	ClassChase
)

// String names the class.
func (c StrideClass) String() string {
	switch c {
	case ClassInvariant:
		return "invariant"
	case ClassAffine:
		return "affine"
	case ClassComputed:
		return "computed"
	case ClassIndirect:
		return "indirect"
	case ClassChase:
		return "pointer-chase"
	}
	return fmt.Sprintf("StrideClass(%d)", int(c))
}

// MarshalJSON emits the class as its stable string name.
func (c StrideClass) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// AddrPattern is the classification of one memory operand.
type AddrPattern struct {
	PC    int         `json:"pc"`
	Class StrideClass `json:"class"`

	// Stride is the per-iteration address step of the innermost loop,
	// meaningful for ClassAffine only.
	Stride int64 `json:"stride,omitempty"`
	// BaseKnown reports whether the affine form has no symbolic (live-in)
	// terms; Base is then the constant part of the address expression.
	BaseKnown bool  `json:"base_known,omitempty"`
	Base      int64 `json:"base,omitempty"`

	// IndirectDepth counts nested loads on the address chain (A[B[i]] is
	// 1, B[A[C[i]]] is 2); zero for non-indirect classes.
	IndirectDepth int `json:"indirect_depth,omitempty"`

	// Loop is the innermost natural-loop index containing the access, or
	// -1 when the access sits outside every loop (always ClassInvariant).
	Loop int `json:"loop"`
}

// ivInfo records that a register behaves as an induction variable of one
// natural loop: every definition inside the loop is a self-update.
type ivInfo struct {
	loop  int   // natural-loop index
	basic bool  // all in-loop defs are AddI r, r, c — affine with known step
	step  int64 // per-iteration increment for basic IVs (skip-flagged updates excluded)
}

// symExpr is the symbolic value of a register: an affine form
// c + Σ coeffs[r]·IV_r + Σ syms[r]·live-in_r while affine holds, plus
// taint that survives non-affine operations.
type symExpr struct {
	c      int64
	coeffs map[isa.Reg]int64 // induction-variable terms
	syms   map[isa.Reg]int64 // live-in (spawn-copied) symbolic terms
	affine bool

	loadDepth int               // max nesting of loads on the chain
	carried   map[int]bool      // def PCs of loop-carried non-IV recurrences on the chain
	ivs       map[isa.Reg]bool  // every IV feeding the value, incl. through non-affine ops
	initPCs   map[isa.Reg][]int // per symbolic reg: its reaching out-of-loop def PCs (stability key)
}

// Patterns is the address-pattern analysis of one program. Build it once
// with AnalyzeAddrPatterns and query memory operands with PatternAt; the
// alias oracle (MayAlias) compares operands across two Patterns.
type Patterns struct {
	Prog *isa.Program
	G    *CFG
	F    *LoopForest
	Vals *Values

	du      *DefUse
	ivs     map[isa.Reg][]ivInfo
	memo    map[int]*symExpr
	onstack map[int]bool
}

// AnalyzeAddrPatterns runs the supporting analyses (CFG, natural loops,
// reaching definitions, interval abstract interpretation) and the
// induction-variable detection for a program.
func AnalyzeAddrPatterns(p *isa.Program) *Patterns {
	g := BuildCFG(p)
	f := g.NaturalLoops(g.Dominators())
	pt := &Patterns{
		Prog: p, G: g, F: f,
		Vals:    AnalyzeValues(g),
		du:      g.ReachingDefs(),
		ivs:     map[isa.Reg][]ivInfo{},
		memo:    map[int]*symExpr{},
		onstack: map[int]bool{},
	}
	pt.detectIVs()
	return pt
}

// detectIVs finds, per natural loop, the registers whose every in-loop
// definition is a self-update: AddI r, r, c makes a basic IV with a known
// step; any mix of immediate self-operations (AddI/AndI/XorI/ShlI/ShrI/
// MulI with Dst == Src1) makes a quasi-IV such as a masked hash-probe
// cursor (h = (h+1) & mask). Sync-segment skip updates (FlagSyncSkip) are
// excluded from the step: they are catch-up jumps, not iteration steps.
func (pt *Patterns) detectIVs() {
	for li := range pt.F.Loops {
		l := &pt.F.Loops[li]
		defs := map[isa.Reg][]int{}
		for b := range l.Blocks {
			for pc := pt.G.Blocks[b].Start; pc < pt.G.Blocks[b].End; pc++ {
				in := &pt.Prog.Code[pc]
				if in.Op.HasDst() {
					defs[in.Dst] = append(defs[in.Dst], pc)
				}
			}
		}
		for r, ds := range defs {
			basic, quasi := true, true
			var step int64
			for _, d := range ds {
				in := &pt.Prog.Code[d]
				self := in.Dst == in.Src1
				if !(in.Op == isa.OpAddI && self) {
					basic = false
				}
				switch in.Op {
				case isa.OpAddI, isa.OpAndI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpMulI:
					if !self {
						quasi = false
					}
				default:
					quasi = false
				}
				if in.Op == isa.OpAddI && self && !in.HasFlag(isa.FlagSyncSkip) {
					step += in.Imm
				}
			}
			if quasi {
				pt.ivs[r] = append(pt.ivs[r], ivInfo{loop: li, basic: basic, step: step})
			}
		}
	}
}

// ivAt returns the innermost-loop IV record for register r usable at pc,
// or nil: r must be an IV of a natural loop that contains pc's block.
func (pt *Patterns) ivAt(pc int, r isa.Reg) *ivInfo {
	infos := pt.ivs[r]
	if len(infos) == 0 {
		return nil
	}
	var best *ivInfo
	for _, li := range pt.F.EnclosingLoops(pt.G.BlockOf[pc]) {
		for i := range infos {
			if infos[i].loop == li {
				best = &infos[i]
				break
			}
		}
		if best != nil {
			break // EnclosingLoops is innermost-first
		}
	}
	return best
}

// outOfLoopDefs returns the reachable definitions of r outside loop li —
// the IV's initialization chain, whose taint (loads, outer IVs) the IV
// inherits: a hash-probe cursor seeded from a loaded key makes every
// address derived from the cursor data-dependent.
func (pt *Patterns) outOfLoopDefs(r isa.Reg, li int) []int {
	l := &pt.F.Loops[li]
	var out []int
	for pc := range pt.Prog.Code {
		in := &pt.Prog.Code[pc]
		if in.Op.HasDst() && in.Dst == r && !l.Blocks[pt.G.BlockOf[pc]] && pt.G.ReachablePC(pc) {
			out = append(out, pc)
		}
	}
	return out
}

// --- symExpr construction ------------------------------------------------

func newExpr() *symExpr {
	return &symExpr{
		affine: true,
		coeffs: map[isa.Reg]int64{}, syms: map[isa.Reg]int64{},
		carried: map[int]bool{}, ivs: map[isa.Reg]bool{},
		initPCs: map[isa.Reg][]int{},
	}
}

func (e *symExpr) clone() *symExpr {
	n := newExpr()
	n.c, n.affine = e.c, e.affine
	n.loadDepth = e.loadDepth
	for pc := range e.carried {
		n.carried[pc] = true
	}
	for r, v := range e.coeffs {
		n.coeffs[r] = v
	}
	for r, v := range e.syms {
		n.syms[r] = v
	}
	for r := range e.ivs {
		n.ivs[r] = true
	}
	for r, ds := range e.initPCs {
		n.initPCs[r] = append([]int(nil), ds...)
	}
	return n
}

// mergeTaint folds o's taint fields into e without touching e's affine
// form. Used for IV initialization chains and non-affine operands.
func (e *symExpr) mergeTaint(o *symExpr) {
	if o.loadDepth > e.loadDepth {
		e.loadDepth = o.loadDepth
	}
	for pc := range o.carried {
		e.carried[pc] = true
	}
	for r := range o.ivs {
		e.ivs[r] = true
	}
	for r, ds := range o.initPCs {
		if _, ok := e.initPCs[r]; !ok {
			e.initPCs[r] = append([]int(nil), ds...)
		}
	}
}

func equalTerms(a, b map[isa.Reg]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for r, v := range a {
		if b[r] != v {
			return false
		}
	}
	return true
}

// joinExpr joins two reaching-definition values: identical affine forms
// stay affine, anything else degrades to tainted non-affine.
func joinExpr(a, b *symExpr) *symExpr {
	e := a.clone()
	if !(a.affine && b.affine && a.c == b.c && equalTerms(a.coeffs, b.coeffs) && equalTerms(a.syms, b.syms)) {
		e.affine = false
		for r := range b.coeffs {
			if b.coeffs[r] != 0 {
				e.ivs[r] = true
			}
		}
	}
	e.mergeTaint(b)
	return e
}

// scaleExpr multiplies an affine form by a constant; non-affine input
// keeps only taint.
func scaleExpr(a *symExpr, k int64) *symExpr {
	e := a.clone()
	if !e.affine {
		return e
	}
	e.c *= k
	for r := range e.coeffs {
		e.coeffs[r] *= k
	}
	for r := range e.syms {
		e.syms[r] *= k
	}
	return e
}

// addExpr sums two values; affinity survives only when both sides are
// affine.
func addExpr(a, b *symExpr) *symExpr {
	if !a.affine || !b.affine {
		e := a.clone()
		e.affine = false
		e.mergeTaint(b)
		for r := range b.coeffs {
			e.ivs[r] = true
		}
		return e
	}
	e := a.clone()
	e.c += b.c
	for r, v := range b.coeffs {
		e.coeffs[r] += v
		if e.coeffs[r] == 0 {
			delete(e.coeffs, r)
		}
	}
	for r, v := range b.syms {
		e.syms[r] += v
		if e.syms[r] == 0 {
			delete(e.syms, r)
		}
	}
	e.mergeTaint(b)
	return e
}

// nonAffineExpr combines operand values through an operation the affine
// domain cannot express: only taint survives.
func nonAffineExpr(srcs ...*symExpr) *symExpr {
	e := newExpr()
	e.affine = false
	for _, s := range srcs {
		e.mergeTaint(s)
		for r := range s.coeffs {
			if s.coeffs[r] != 0 {
				e.ivs[r] = true
			}
		}
	}
	return e
}

// --- evaluation ----------------------------------------------------------

// evalReg evaluates register r as used at pc. Induction variables
// short-circuit to a single affine term (plus their initialization
// taint); everything else joins over the reaching definitions. A register
// with no reaching definition is a live-in: the spawn-time register copy
// makes it a stable symbolic base.
func (pt *Patterns) evalReg(pc int, r isa.Reg) *symExpr {
	if info := pt.ivAt(pc, r); info != nil {
		e := newExpr()
		e.coeffs[r] = 1
		e.ivs[r] = true
		for _, d := range pt.outOfLoopDefs(r, info.loop) {
			e.mergeTaint(pt.evalDef(d))
		}
		return e
	}
	defs := pt.du.DefsOfReg(pc, r)
	if len(defs) == 0 {
		e := newExpr()
		e.syms[r] = 1
		e.initPCs[r] = nil
		return e
	}
	var e *symExpr
	for _, d := range defs {
		ed := pt.evalDef(d)
		if e == nil {
			e = ed.clone()
		} else {
			e = joinExpr(e, ed)
		}
	}
	return e
}

// evalDef evaluates the value produced by the definition at pc, memoized
// per definition site. Re-entering a definition already on the
// evaluation stack is a loop-carried recurrence through a non-IV
// register — the pointer-chase signature.
func (pt *Patterns) evalDef(pc int) *symExpr {
	if pt.onstack[pc] {
		e := newExpr()
		e.affine = false
		e.carried[pc] = true
		return e
	}
	if e, ok := pt.memo[pc]; ok {
		return e
	}
	pt.onstack[pc] = true
	defer delete(pt.onstack, pc)

	in := &pt.Prog.Code[pc]
	var e *symExpr
	switch in.Op {
	case isa.OpConst:
		e = newExpr()
		e.c = in.Imm
	case isa.OpMov:
		e = pt.evalReg(pc, in.Src1).clone()
	case isa.OpAddI:
		e = addConstExpr(pt.evalReg(pc, in.Src1), in.Imm)
	case isa.OpAdd:
		e = addExpr(pt.evalReg(pc, in.Src1), pt.evalReg(pc, in.Src2))
	case isa.OpSub:
		e = addExpr(pt.evalReg(pc, in.Src1), scaleExpr(pt.evalReg(pc, in.Src2), -1))
	case isa.OpMulI:
		e = scaleExpr(pt.evalReg(pc, in.Src1), in.Imm)
	case isa.OpShlI:
		if in.Imm >= 0 && in.Imm < 63 {
			e = scaleExpr(pt.evalReg(pc, in.Src1), int64(1)<<uint(in.Imm))
		} else {
			e = nonAffineExpr(pt.evalReg(pc, in.Src1))
		}
	case isa.OpLoad, isa.OpAtomicAdd:
		addr := pt.evalReg(pc, in.Src1)
		e = newExpr()
		e.affine = false
		e.mergeTaint(addr)
		for r := range addr.coeffs {
			if addr.coeffs[r] != 0 {
				e.ivs[r] = true
			}
		}
		e.loadDepth++
	default:
		var srcs []*symExpr
		for _, r := range srcRegs(in) {
			srcs = append(srcs, pt.evalReg(pc, r))
		}
		e = nonAffineExpr(srcs...)
	}
	pt.memo[pc] = e
	return e
}

func addConstExpr(a *symExpr, k int64) *symExpr {
	e := a.clone()
	if e.affine {
		e.c += k
	}
	return e
}

// exprAt evaluates the address register of the memory operand at pc
// (mem[Src1+Imm]); the Imm offset is folded in by callers that need the
// full address expression.
func (pt *Patterns) exprAt(pc int) *symExpr {
	return pt.evalReg(pc, pt.Prog.Code[pc].Src1)
}

// PatternAt classifies the memory operand of the instruction at pc. The
// taxonomy is total: every operand lands in exactly one class.
//
// Priority: a loop-carried recurrence carried by the operand's own
// innermost loop is a pointer chase (nothing can run ahead of it; value
// cycles in *outer* loops — a frontier double-buffer swap between BFS
// levels, say — do not block running ahead within the inner loop and do
// not chase); otherwise any load on the chain —
// including an induction variable's initialization, such as a probe
// cursor seeded from a loaded key — makes it indirect; otherwise an
// affine form stepping a basic induction variable of an enclosing loop
// is affine; otherwise any induction-variable dependence (through hash
// mixing, masking) is computed; and a value touched by none of the above
// is invariant across the loop.
func (pt *Patterns) PatternAt(pc int) AddrPattern {
	in := &pt.Prog.Code[pc]
	e := pt.exprAt(pc)
	li := pt.F.InnermostLoop(pt.G.BlockOf[pc])

	ap := AddrPattern{PC: pc, Loop: li}

	// Stride: the per-iteration step contributed by basic IVs, taken
	// for the innermost loop that owns one of the expression's IVs.
	strideLoop, stride := -1, int64(0)
	if e.affine {
		for r, co := range e.coeffs {
			for _, info := range pt.ivs[r] {
				if !info.basic {
					continue
				}
				d := pt.loopDepthOf(info.loop)
				if strideLoop < 0 || d > pt.loopDepthOf(strideLoop) {
					strideLoop = info.loop
					stride = co * info.step
				} else if info.loop == strideLoop {
					stride += co * info.step
				}
			}
		}
	}

	chase := false
	if li >= 0 {
		l := &pt.F.Loops[li]
		for cpc := range e.carried {
			if l.Blocks[pt.G.BlockOf[cpc]] {
				chase = true
				break
			}
		}
	}
	switch {
	case chase:
		ap.Class = ClassChase
	case e.loadDepth > 0:
		ap.Class = ClassIndirect
		ap.IndirectDepth = e.loadDepth
	case e.affine && strideLoop >= 0 && stride != 0:
		ap.Class = ClassAffine
		ap.Stride = stride
		if len(e.syms) == 0 {
			ap.BaseKnown = true
			ap.Base = e.c + in.Imm
		}
	case len(e.ivs) > 0:
		ap.Class = ClassComputed
	default:
		ap.Class = ClassInvariant
		if e.affine && len(e.syms) == 0 && len(e.coeffs) == 0 {
			ap.BaseKnown = true
			ap.Base = e.c + in.Imm
		}
	}
	return ap
}

func (pt *Patterns) loopDepthOf(li int) int {
	d := 0
	for l := li; l >= 0; l = pt.F.Loops[l].Parent {
		d++
	}
	return d
}
