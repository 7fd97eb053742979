package analysis

import (
	"fmt"
	"slices"

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
	// of the main thread without touching memory. A counter bumped on
	// some paths only (A[k++] under a branch) lands here too: no load
	// feeds its arithmetic, but it has no fixed stride.
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
	// BaseKnown reports whether the address has no terms but iteration
	// counters; Base is then its value at iteration 0 of every loop.
	BaseKnown bool  `json:"base_known,omitempty"`
	Base      int64 `json:"base,omitempty"`

	// IndirectDepth counts nested loads on the address chain (A[B[i]] is
	// 1, B[A[C[i]]] is 2); zero for non-indirect classes.
	IndirectDepth int `json:"indirect_depth,omitempty"`

	// Loop is the innermost natural-loop index containing the access, or
	// -1 when the access sits outside every loop (always ClassInvariant).
	Loop int `json:"loop"`
}

// Patterns is the analysis of one program, and the only one: CFG,
// dominators, natural loops, interval values and pruned SSA, built once
// by AnalyzeAddrPatterns and taken by every checker, the safety plan and
// translation validation. Def-use chains are read off the SSA (S.Uses,
// S.DefsOf). PatternAt classifies memory operands; the alias oracle
// (MayAlias) compares operands across two Patterns. Both read the
// canonical address expressions of one symbolic evaluator over the SSA
// (symexec.go) — the evaluator translation validation uses — so the
// classes, the alias answers and the proofs share one algebra.
type Patterns struct {
	Prog *isa.Program
	G    *CFG
	Idom []int // immediate dominator of each block of G (CFG.Dominators)
	F    *LoopForest
	Vals *Values
	S    *SSA

	// ev labels every natural loop by its own index and erases sync-skip
	// self-updates (recording them in SymExpr.Skips), so a skip-adjusted
	// counter is still an induction variable; MayAlias refuses any
	// expression that relies on an erasure.
	ev     *SymEval
	loopOf map[string]int // Iter/μ label -> natural-loop index
	shapes map[*SymAtom]*shape
}

// AnalyzeAddrPatterns analyses a program: CFG, dominators, natural
// loops, pruned SSA and interval abstract interpretation, each built
// once.
func AnalyzeAddrPatterns(p *isa.Program) *Patterns {
	g := BuildCFG(p)
	idom := g.Dominators()
	f := g.NaturalLoops(idom)
	s := BuildSSA(g, idom)
	pt := &Patterns{
		Prog: p, G: g, Idom: idom, F: f, S: s,
		Vals:   AnalyzeValues(g),
		ev:     NewSymEval(p, g, s, f, nil, true),
		loopOf: map[string]int{},
		shapes: map[*SymAtom]*shape{},
	}
	for li := range f.Loops {
		pt.loopOf[pt.ev.loopLabel(li)] = li
	}
	return pt
}

// shape summarizes what an atom's value depends on, over its whole
// sub-expression DAG.
type shape struct {
	depth  int   // nesting of loads and atomics
	iter   bool  // an iteration counter or an immediate self-update recurrence feeds it
	chases []int // loops of the other recurrences feeding it, sorted
	stable bool  // one value for the whole run: live-ins and pure operations on them
}

func (s *shape) merge(o *shape) {
	s.depth = max(s.depth, o.depth)
	s.iter = s.iter || o.iter
	s.chases = mergeInts(s.chases, o.chases)
	s.stable = s.stable && o.stable
}

// exprShape merges the shapes of an expression's terms (a constant is
// stable).
func (pt *Patterns) exprShape(e *SymExpr) *shape {
	s := &shape{stable: true}
	for _, t := range e.Terms {
		s.merge(pt.atomShape(t.Atom))
	}
	return s
}

// atomShape computes an atom's shape once per node: expressions are
// hash-consed DAGs that can unroll to exponential size as trees.
func (pt *Patterns) atomShape(a *SymAtom) *shape {
	if s, ok := pt.shapes[a]; ok {
		return s
	}
	s := &shape{}
	switch a.Kind {
	case AtomParam:
		s.stable = true
	case AtomIter:
		s.iter = true
	case AtomLoad:
		s.merge(pt.exprShape(a.Addr))
		s.depth++
	case AtomOp, AtomSel:
		s.stable = a.Kind == AtomOp && a.Op != isa.OpNop && a.Op != isa.OpAtomicAdd
		for _, arg := range a.Args {
			s.merge(pt.exprShape(arg))
		}
		if a.Op == isa.OpAtomicAdd {
			s.depth++
		}
	case AtomRecDef:
		s.merge(pt.exprShape(a.Args[0]))
		s.merge(pt.exprShape(a.Args[1]))
		if selfStep(a.Args[1], a.Depth) {
			s.iter = true
		} else {
			s.chases = mergeInts(s.chases, []int{pt.loopOf[a.Loop]})
		}
	}
	pt.shapes[a] = s
	return s
}

// selfStep reports whether a recurrence body is built only from
// immediate self-updates of the recurrence bound at depth d: k·rec + c,
// an immediate mask/xor/shift of one, or a control-flow join of such
// updates (a counter bumped on some paths). A masked hash-probe cursor
// h = (h+1) & mask is one: computable ahead without touching memory.
func selfStep(e *SymExpr, d int) bool {
	if len(e.Terms) != 1 {
		return false
	}
	a := e.Terms[0].Atom
	switch a.Kind {
	case AtomRec:
		return a.Depth == d
	case AtomOp:
		switch a.Op {
		case isa.OpAndI, isa.OpXorI, isa.OpShlI, isa.OpShrI:
			return selfStep(a.Args[0], d)
		}
	case AtomSel:
		for _, arg := range a.Args {
			if !selfStep(arg, d) {
				return false
			}
		}
		return true
	}
	return false
}

// PatternAt classifies the memory operand of the instruction at pc. The
// taxonomy is total: every operand lands in exactly one class.
//
// Priority: a recurrence of the operand's innermost loop, or of a loop
// nested in it, that is not an immediate self-update is a pointer chase
// (nothing can run ahead of it: a list walk, or a binary search whose
// result the address reads; value cycles in *outer* loops — a frontier
// double-buffer swap between BFS levels, say — do not block running
// ahead within the inner loop and do not chase); otherwise any load or
// atomic on the chain — including an
// induction variable's initial value, such as a probe cursor seeded from
// a loaded key — makes it indirect; otherwise an affine combination of
// loop-invariant terms and iteration counters that steps with an
// enclosing loop is affine (the stride is the counter coefficient of the
// innermost such loop); otherwise any dependence on an iteration counter
// or a self-updated recurrence (through hash mixing, masking, a
// conditionally bumped counter) is computed; and a value touched by none
// of the above is invariant across the loop.
func (pt *Patterns) PatternAt(pc int) AddrPattern {
	e := pt.ev.AddrExpr(pc)
	b := pt.G.BlockOf[pc]
	li := pt.F.InnermostLoop(b)
	ap := AddrPattern{PC: pc, Loop: li}

	s := pt.exprShape(e)
	stride := pt.stride(e, b)
	switch {
	case li >= 0 && slices.ContainsFunc(s.chases, func(l int) bool { return pt.nested(l, li) }):
		ap.Class = ClassChase
	case s.depth > 0:
		ap.Class = ClassIndirect
		ap.IndirectDepth = s.depth
	case stride != 0:
		ap.Class = ClassAffine
		ap.Stride = stride
		ap.BaseKnown = true
		for _, t := range e.Terms {
			ap.BaseKnown = ap.BaseKnown && t.Atom.Kind == AtomIter
		}
		if ap.BaseKnown {
			ap.Base = e.Const
		}
	case s.iter:
		ap.Class = ClassComputed
	default:
		ap.Class = ClassInvariant
		if e.IsConst() {
			ap.BaseKnown = true
			ap.Base = e.Const
		}
	}
	return ap
}

// stride returns the per-iteration step of an affine address in the
// innermost loop enclosing block b whose counter it carries, or 0 when
// the address is not affine (a term other than a counter varies) or
// steps with no enclosing loop.
func (pt *Patterns) stride(e *SymExpr, b int) int64 {
	coeff := map[int]int64{}
	for _, t := range e.Terms {
		if t.Atom.Kind == AtomIter {
			coeff[pt.loopOf[t.Atom.Loop]] = t.Coeff
			continue
		}
		if s := pt.atomShape(t.Atom); s.iter || len(s.chases) > 0 {
			return 0
		}
	}
	for _, li := range pt.F.EnclosingLoops(b) {
		if c := coeff[li]; c != 0 {
			return c
		}
	}
	return 0
}

// nested reports whether natural loop l is loop li or nested inside it.
func (pt *Patterns) nested(l, li int) bool {
	for ; l >= 0; l = pt.F.Loops[l].Parent {
		if l == li {
			return true
		}
	}
	return false
}
