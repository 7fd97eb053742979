package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ghostthread/internal/isa"
)

// This file is the symbolic evaluator behind the translation validator:
// it executes one abstract iteration of a loop nest over the pruned-SSA
// value graph and canonicalizes every value into an affine combination
//
//	c0 + Σ coeff·atom
//
// over atomic terms (live-in registers, loop iteration counters, loads,
// recurrences, and residual opaque operations). Two programs compute the
// same address stream exactly when the canonical keys of their address
// expressions coincide under a shared loop labelling — which is what
// transval.go checks, per prefetch target, between a main program and its
// ghost slice.

// SymAtomKind enumerates the atomic terms of a canonical expression.
type SymAtomKind uint8

// Atom kinds.
const (
	// AtomParam is the value of a register at program entry (for ghosts:
	// the spawn-time register-file copy).
	AtomParam SymAtomKind = iota
	// AtomIter is the iteration counter of a natural loop (0-based,
	// counted in completed backedge traversals).
	AtomIter
	// AtomLoad is the value loaded from an address expression.
	AtomLoad
	// AtomOp is a residual non-affine operation over sub-expressions.
	AtomOp
	// AtomSel is a control-flow join whose arguments differ (a phi the
	// evaluator cannot collapse).
	AtomSel
	// AtomRec is a bound reference to the enclosing recurrence (de
	// Bruijn-style, by binder depth).
	AtomRec
	// AtomRecDef is a loop-carried recurrence μ(init, body) that is not a
	// basic induction variable.
	AtomRecDef
)

// SymAtom is one atomic term.
type SymAtom struct {
	Kind  SymAtomKind
	Reg   isa.Reg    // AtomParam
	Loop  string     // AtomIter / AtomRecDef: canonical loop label
	Op    isa.Op     // AtomOp
	Imm   int64      // AtomOp immediate operand
	Args  []*SymExpr // AtomOp / AtomSel args; AtomRecDef: [init, body]
	Addr  *SymExpr   // AtomLoad address
	Depth int        // AtomRec binder depth
	PC    int        // provenance: defining pc (-1 when synthetic)

	key string
}

// symIntern hash-conses canonical expression keys: structurally equal
// sub-expressions share one small integer ID, so composite keys stay
// short even when the expression DAG unrolls to exponential size as a
// tree (the benchmark hash function doubles per round otherwise).
// Interning is process-global: equal structure maps to equal ID in every
// program, which is exactly the equivalence the validator compares.
var symIntern = struct {
	sync.Mutex
	ids map[string]int
}{ids: map[string]int{}}

func internID(e *SymExpr) int {
	k := e.Key()
	symIntern.Lock()
	defer symIntern.Unlock()
	id, ok := symIntern.ids[k]
	if !ok {
		id = len(symIntern.ids)
		symIntern.ids[k] = id
	}
	return id
}

// Key returns the canonical (provenance-free) key of the atom.
// Sub-expressions appear as interned #IDs, keeping keys bounded.
func (a *SymAtom) Key() string {
	if a.key != "" {
		return a.key
	}
	switch a.Kind {
	case AtomParam:
		a.key = fmt.Sprintf("p%d", a.Reg)
	case AtomIter:
		a.key = "i[" + a.Loop + "]"
	case AtomLoad:
		a.key = fmt.Sprintf("ld(#%d)", internID(a.Addr))
	case AtomOp:
		parts := make([]string, len(a.Args))
		for i, e := range a.Args {
			parts[i] = fmt.Sprintf("#%d", internID(e))
		}
		a.key = fmt.Sprintf("op:%s:%d(%s)", a.Op, a.Imm, strings.Join(parts, ","))
	case AtomSel:
		parts := make([]string, len(a.Args))
		for i, e := range a.Args {
			parts[i] = fmt.Sprintf("#%d", internID(e))
		}
		a.key = "sel(" + strings.Join(parts, ",") + ")"
	case AtomRec:
		a.key = fmt.Sprintf("rec%d", a.Depth)
	case AtomRecDef:
		a.key = fmt.Sprintf("mu[%s](#%d;#%d)", a.Loop, internID(a.Args[0]), internID(a.Args[1]))
	}
	return a.key
}

// SymTerm is one weighted atom of a canonical expression.
type SymTerm struct {
	Coeff int64
	Atom  *SymAtom
}

// SymExpr is a canonical affine combination of atomic terms. Loads and
// Skips carry provenance: the load PCs feeding the value, and the
// sync-skip updates that were erased while evaluating it (non-empty
// Skips is what downgrades a proof to PROVED-MODULO-SYNC).
type SymExpr struct {
	Const int64
	Terms []SymTerm

	Loads []int // PCs of loads appearing anywhere in the tree
	Skips []int // PCs of erased FlagSyncSkip updates

	frees []int // binder depths of free AtomRec references
	key   string
}

// Key returns the canonical key of the expression.
func (e *SymExpr) Key() string {
	if e.key != "" {
		return e.key
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", e.Const)
	for _, t := range e.Terms {
		fmt.Fprintf(&sb, "+%d*%s", t.Coeff, t.Atom.Key())
	}
	e.key = sb.String()
	return e.key
}

// IsConst reports whether the expression is a plain constant.
func (e *SymExpr) IsConst() bool { return len(e.Terms) == 0 }

// maxRenderDepth bounds String's recursion: beyond it sub-expressions
// render as the placeholder #N (the canonical keys remain exact; only
// the human rendering is elided). The placeholder names no interned ID,
// whose numbering depends on what the process evaluated before, so a
// verdict renders the same text alone and in a sweep.
const maxRenderDepth = 6

// String renders the expression for verdict messages, eliding deeply
// nested sub-expressions.
func (e *SymExpr) String() string { return e.render(maxRenderDepth) }

func (e *SymExpr) render(depth int) string {
	if depth <= 0 {
		return "#N"
	}
	var sb strings.Builder
	wrote := false
	if e.Const != 0 || len(e.Terms) == 0 {
		fmt.Fprintf(&sb, "%d", e.Const)
		wrote = true
	}
	for _, t := range e.Terms {
		if wrote {
			sb.WriteString(" + ")
		}
		if t.Coeff != 1 {
			fmt.Fprintf(&sb, "%d*", t.Coeff)
		}
		sb.WriteString(t.Atom.render(depth - 1))
		wrote = true
	}
	return sb.String()
}

func (a *SymAtom) render(depth int) string {
	switch a.Kind {
	case AtomLoad:
		return "ld(" + a.Addr.render(depth) + ")"
	case AtomOp:
		parts := make([]string, len(a.Args))
		for i, e := range a.Args {
			parts[i] = e.render(depth)
		}
		return fmt.Sprintf("%s(%s)", a.Op, strings.Join(parts, ","))
	case AtomSel:
		parts := make([]string, len(a.Args))
		for i, e := range a.Args {
			parts[i] = e.render(depth)
		}
		return "sel(" + strings.Join(parts, ",") + ")"
	case AtomRecDef:
		return fmt.Sprintf("mu[%s](%s;%s)", a.Loop, a.Args[0].render(depth), a.Args[1].render(depth))
	}
	return a.Key()
}

func mergeInts(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	seen := map[int]bool{}
	out := make([]int, 0, len(a)+len(b))
	for _, v := range append(append([]int(nil), a...), b...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func exprConst(c int64) *SymExpr { return &SymExpr{Const: c} }

func exprAtom(a *SymAtom) *SymExpr {
	e := &SymExpr{Terms: []SymTerm{{Coeff: 1, Atom: a}}}
	e.inheritAtom(a)
	return e
}

// inheritAtom pulls provenance and free-variable info out of an atom's
// sub-expressions.
func (e *SymExpr) inheritAtom(a *SymAtom) {
	var sub []*SymExpr
	sub = append(sub, a.Args...)
	if a.Addr != nil {
		sub = append(sub, a.Addr)
	}
	for _, s := range sub {
		e.Loads = mergeInts(e.Loads, s.Loads)
		e.Skips = mergeInts(e.Skips, s.Skips)
		e.frees = mergeInts(e.frees, s.frees)
	}
	switch a.Kind {
	case AtomLoad:
		if a.PC >= 0 {
			e.Loads = mergeInts(e.Loads, []int{a.PC})
		}
	case AtomRec:
		e.frees = mergeInts(e.frees, []int{a.Depth})
	case AtomRecDef:
		// The body's reference to its own binder is bound here.
		var frees []int
		for _, d := range e.frees {
			if d != a.Depth {
				frees = append(frees, d)
			}
		}
		e.frees = frees
	}
}

func exprAdd(a, b *SymExpr) *SymExpr {
	out := &SymExpr{
		Const: a.Const + b.Const,
		Loads: mergeInts(a.Loads, b.Loads),
		Skips: mergeInts(a.Skips, b.Skips),
		frees: mergeInts(a.frees, b.frees),
	}
	merged := map[string]*SymTerm{}
	var order []string
	for _, src := range [][]SymTerm{a.Terms, b.Terms} {
		for _, t := range src {
			k := t.Atom.Key()
			if m, ok := merged[k]; ok {
				m.Coeff += t.Coeff
			} else {
				nt := t
				merged[k] = &nt
				order = append(order, k)
			}
		}
	}
	sort.Strings(order)
	for _, k := range order {
		if merged[k].Coeff != 0 {
			out.Terms = append(out.Terms, *merged[k])
		}
	}
	return out
}

func exprScale(a *SymExpr, k int64) *SymExpr {
	if k == 0 {
		return &SymExpr{Loads: a.Loads, Skips: a.Skips}
	}
	out := &SymExpr{
		Const: a.Const * k,
		Terms: make([]SymTerm, len(a.Terms)),
		Loads: a.Loads, Skips: a.Skips, frees: a.frees,
	}
	for i, t := range a.Terms {
		out.Terms[i] = SymTerm{Coeff: t.Coeff * k, Atom: t.Atom}
	}
	return out
}

func exprAddConst(a *SymExpr, c int64) *SymExpr {
	if c == 0 {
		return a
	}
	out := &SymExpr{Const: a.Const + c, Terms: a.Terms, Loads: a.Loads, Skips: a.Skips, frees: a.frees}
	return out
}

// SymEval evaluates SSA values of one program into canonical expressions.
type SymEval struct {
	Prog *isa.Program
	G    *CFG
	S    *SSA
	F    *LoopForest

	// labels maps natural-loop indices to canonical labels shared with
	// the program being compared against (transval assigns matched loops
	// identical labels).
	labels map[int]string

	// Prefix namespaces the fallback labels of unmatched loops, so two
	// programs' unlabelled loops can never unify by accident.
	Prefix string

	// ghost mode erases FlagSyncSkip self-updates (recording them in
	// SymExpr.Skips): the modulo-sync equivalence relation.
	ghost bool

	memo    map[int]*SymExpr
	onstack map[int]int
	depth   int
}

// NewSymEval builds an evaluator. labels may be nil, in which case each
// natural loop is labelled by its own index (single-program use).
func NewSymEval(p *isa.Program, g *CFG, s *SSA, f *LoopForest, labels map[int]string, ghost bool) *SymEval {
	return &SymEval{
		Prog: p, G: g, S: s, F: f,
		Prefix: "n", labels: labels, ghost: ghost,
		memo: map[int]*SymExpr{}, onstack: map[int]int{},
	}
}

func (ev *SymEval) loopLabel(li int) string {
	if l, ok := ev.labels[li]; ok {
		return l
	}
	return fmt.Sprintf("%s%d", ev.Prefix, li)
}

// AddrExpr returns the canonical address expression of the memory
// operand mem[Src1+Imm] at pc.
func (ev *SymEval) AddrExpr(pc int) *SymExpr {
	in := &ev.Prog.Code[pc]
	id := ev.S.UseVal[pc][0]
	if id < 0 {
		id = ev.S.Param(in.Src1)
	}
	return exprAddConst(ev.ValueExpr(id), in.Imm)
}

// ValueExpr evaluates one SSA value.
func (ev *SymEval) ValueExpr(id int) *SymExpr {
	if e, ok := ev.memo[id]; ok {
		return e
	}
	if d, on := ev.onstack[id]; on {
		return exprAtom(&SymAtom{Kind: AtomRec, Depth: d, PC: -1})
	}
	v := &ev.S.Vals[id]
	var e *SymExpr
	switch v.Kind {
	case SSAParam:
		e = exprAtom(&SymAtom{Kind: AtomParam, Reg: v.Reg, PC: -1})
	case SSAInstr:
		e = ev.instrExpr(id, v.PC)
	case SSAPhi:
		e = ev.phiExpr(id, v)
	}
	if e == nil {
		e = exprAtom(&SymAtom{Kind: AtomOp, Op: isa.OpNop, PC: -1})
	}
	if len(e.frees) == 0 {
		ev.memo[id] = e
	}
	return e
}

// joinArgs collapses a list of incoming values: identical expressions
// collapse to one, anything else becomes an AtomSel.
func (ev *SymEval) joinArgs(args []*SymExpr) *SymExpr {
	if len(args) == 0 {
		return exprAtom(&SymAtom{Kind: AtomOp, Op: isa.OpNop, PC: -1})
	}
	first := args[0]
	same := true
	for _, a := range args[1:] {
		if a.Key() != first.Key() {
			same = false
			break
		}
	}
	if same {
		// Merge provenance from all branches (they may have reached the
		// same value through different skip erasures).
		out := first
		for _, a := range args[1:] {
			out = &SymExpr{
				Const: out.Const, Terms: out.Terms, key: out.key, frees: out.frees,
				Loads: mergeInts(out.Loads, a.Loads),
				Skips: mergeInts(out.Skips, a.Skips),
			}
		}
		return out
	}
	return exprAtom(&SymAtom{Kind: AtomSel, Args: args, PC: -1})
}

// phiExpr evaluates a phi: loop-header phis become induction variables
// (init + step·iter) or μ-recurrences; plain joins collapse or become
// AtomSel.
func (ev *SymEval) phiExpr(id int, v *SSAValue) *SymExpr {
	b := v.Block
	li := ev.F.InnermostLoop(b)
	isHeader := li >= 0 && ev.F.Loops[li].Header == b
	preds := ev.G.Blocks[b].Preds

	argExpr := func(i int) *SymExpr {
		a := v.Args[i]
		if a < 0 {
			return exprAtom(&SymAtom{Kind: AtomParam, Reg: v.Reg, PC: -1})
		}
		return ev.ValueExpr(a)
	}

	if !isHeader {
		args := make([]*SymExpr, len(v.Args))
		for i := range v.Args {
			args[i] = argExpr(i)
		}
		return ev.joinArgs(args)
	}

	loop := &ev.F.Loops[li]
	var inits, backs []int
	for i, p := range preds {
		if loop.Blocks[p] {
			backs = append(backs, i)
		} else {
			inits = append(inits, i)
		}
	}

	initArgs := make([]*SymExpr, len(inits))
	for i, pi := range inits {
		initArgs[i] = argExpr(pi)
	}
	init := ev.joinArgs(initArgs)

	d := ev.depth
	ev.onstack[id] = d
	ev.depth++
	backArgs := make([]*SymExpr, len(backs))
	for i, pi := range backs {
		backArgs[i] = argExpr(pi)
	}
	ev.depth--
	delete(ev.onstack, id)
	back := ev.joinArgs(backArgs)

	label := ev.loopLabel(li)

	// Basic induction variable: back = self + const step.
	if len(back.Terms) == 1 &&
		back.Terms[0].Atom.Kind == AtomRec && back.Terms[0].Atom.Depth == d &&
		back.Terms[0].Coeff == 1 && len(init.frees) == 0 {
		step := back.Const
		if step == 0 {
			out := &SymExpr{Const: init.Const, Terms: init.Terms, frees: init.frees,
				Loads: mergeInts(init.Loads, back.Loads),
				Skips: mergeInts(init.Skips, back.Skips)}
			return out
		}
		iter := exprScale(exprAtom(&SymAtom{Kind: AtomIter, Loop: label, PC: -1}), step)
		out := exprAdd(init, iter)
		out.Loads = mergeInts(out.Loads, back.Loads)
		out.Skips = mergeInts(out.Skips, back.Skips)
		return out
	}

	// General loop-carried recurrence.
	a := &SymAtom{Kind: AtomRecDef, Loop: label, Args: []*SymExpr{init, back}, Depth: d, PC: -1}
	return exprAtom(a)
}

// instrExpr evaluates the value defined by one instruction.
func (ev *SymEval) instrExpr(id int, pc int) *SymExpr {
	in := &ev.Prog.Code[pc]

	src := func(i int) *SymExpr {
		u := ev.S.UseVal[pc][i]
		if u < 0 {
			var r isa.Reg
			if i == 0 {
				r = in.Src1
			} else {
				r = in.Src2
			}
			return exprAtom(&SymAtom{Kind: AtomParam, Reg: r, PC: -1})
		}
		return ev.ValueExpr(u)
	}

	// Modulo-sync erasure: a FlagSyncSkip self-update advances the
	// ghost's induction state past skipped iterations; under the !skip
	// relation it is the identity.
	if ev.ghost && in.HasFlag(isa.FlagSyncSkip) && in.Op.HasDst() &&
		in.Op.NumSrcs() >= 1 && in.Dst == in.Src1 {
		e := src(0)
		return &SymExpr{Const: e.Const, Terms: e.Terms, frees: e.frees,
			Loads: e.Loads, Skips: mergeInts(e.Skips, []int{pc})}
	}

	switch in.Op {
	case isa.OpConst:
		return exprConst(in.Imm)
	case isa.OpMov:
		return src(0)
	case isa.OpAdd:
		return exprAdd(src(0), src(1))
	case isa.OpSub:
		return exprAdd(src(0), exprScale(src(1), -1))
	case isa.OpAddI:
		return exprAddConst(src(0), in.Imm)
	case isa.OpMulI:
		return exprScale(src(0), in.Imm)
	case isa.OpShlI:
		if in.Imm >= 0 && in.Imm < 63 {
			return exprScale(src(0), int64(1)<<uint(in.Imm))
		}
	case isa.OpMul:
		a, c := src(0), src(1)
		if a.IsConst() {
			return exprScale(c, a.Const)
		}
		if c.IsConst() {
			return exprScale(a, c.Const)
		}
	case isa.OpLoad:
		addr := exprAddConst(src(0), in.Imm)
		return exprAtom(&SymAtom{Kind: AtomLoad, Addr: addr, PC: pc})
	case isa.OpAtomicAdd:
		addr := exprAddConst(src(0), in.Imm)
		return exprAtom(&SymAtom{Kind: AtomOp, Op: in.Op, Args: []*SymExpr{addr, src(1)}, PC: pc})
	}

	// Residual operation: constant-fold when possible, else opaque.
	var args []*SymExpr
	ns := in.Op.NumSrcs()
	for i := 0; i < ns; i++ {
		args = append(args, src(i))
	}
	if folded, ok := foldOp(in, args); ok {
		out := exprConst(folded)
		for _, a := range args {
			out.Loads = mergeInts(out.Loads, a.Loads)
			out.Skips = mergeInts(out.Skips, a.Skips)
		}
		return out
	}
	return exprAtom(&SymAtom{Kind: AtomOp, Op: in.Op, Imm: in.Imm, Args: args, PC: pc})
}

// foldOp evaluates an operation over constant arguments with the
// simulator's exact semantics.
func foldOp(in *isa.Instr, args []*SymExpr) (int64, bool) {
	for _, a := range args {
		if !a.IsConst() {
			return 0, false
		}
	}
	c := func(i int) int64 { return args[i].Const }
	switch in.Op {
	case isa.OpAnd:
		return c(0) & c(1), true
	case isa.OpOr:
		return c(0) | c(1), true
	case isa.OpXor:
		return c(0) ^ c(1), true
	case isa.OpShl:
		return c(0) << (uint64(c(1)) & 63), true
	case isa.OpShr:
		return int64(uint64(c(0)) >> (uint64(c(1)) & 63)), true
	case isa.OpDiv:
		if c(1) == 0 {
			return 0, true
		}
		return c(0) / c(1), true
	case isa.OpRem:
		if c(1) == 0 {
			return 0, true
		}
		return c(0) % c(1), true
	case isa.OpMin:
		return min64(c(0), c(1)), true
	case isa.OpMax:
		return max64(c(0), c(1)), true
	case isa.OpMul:
		return c(0) * c(1), true
	case isa.OpAndI:
		return c(0) & in.Imm, true
	case isa.OpXorI:
		return c(0) ^ in.Imm, true
	case isa.OpShlI:
		return c(0) << (uint64(in.Imm) & 63), true
	case isa.OpShrI:
		return int64(uint64(c(0)) >> (uint64(in.Imm) & 63)), true
	}
	return 0, false
}
