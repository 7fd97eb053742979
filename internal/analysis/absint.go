package analysis

import (
	"math"

	"ghostthread/internal/isa"
)

// Interval is an abstract register value: every concrete value the
// register may hold lies in [Lo, Hi]. Top is [MinInt64, MaxInt64].
type Interval struct {
	Lo, Hi int64
}

// Top is the unconstrained interval.
var Top = Interval{math.MinInt64, math.MaxInt64}

// ConstIv returns the singleton interval {v}.
func ConstIv(v int64) Interval { return Interval{v, v} }

// IsConst reports whether the interval is a singleton.
func (iv Interval) IsConst() bool { return iv.Lo == iv.Hi }

// IsTop reports whether the interval carries no information.
func (iv Interval) IsTop() bool { return iv == Top }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Intersects reports whether two intervals overlap.
func (iv Interval) Intersects(o Interval) bool { return iv.Lo <= o.Hi && o.Lo <= iv.Hi }

// join returns the smallest interval containing both.
func (iv Interval) join(o Interval) Interval {
	return Interval{min64(iv.Lo, o.Lo), max64(iv.Hi, o.Hi)}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// addSat is saturating addition.
func addSat(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

// AddIv is interval addition.
func AddIv(a, b Interval) Interval {
	if a.IsTop() || b.IsTop() {
		return Top
	}
	return Interval{addSat(a.Lo, b.Lo), addSat(a.Hi, b.Hi)}
}

func subIv(a, b Interval) Interval {
	if a.IsTop() || b.IsTop() {
		return Top
	}
	return Interval{addSat(a.Lo, -b.Hi), addSat(a.Hi, -b.Lo)}
}

func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}

// regState is the abstract register file at one program point.
type regState [isa.NumRegs]Interval

// Values is the fixpoint result of the abstract interpretation: an
// in-state per basic block, from which per-instruction states are
// re-derived on demand.
type Values struct {
	cfg     *CFG
	in      []regState
	reached []bool
}

// widenAfter is the per-block visit budget before growth widens to ±∞.
const widenAfter = 3

// AnalyzeValues runs the abstract interpretation to a fixpoint. Entry
// registers are Top: a helper receives the parent's register file at
// spawn, so nothing can be assumed beyond what the program itself
// establishes (constants it loads, guards it executes).
func AnalyzeValues(g *CFG) *Values {
	nb := len(g.Blocks)
	v := &Values{cfg: g, in: make([]regState, nb), reached: make([]bool, nb)}
	visits := make([]int, nb)
	for i := range v.in {
		for r := range v.in[i] {
			v.in[i][r] = Top
		}
	}
	if nb == 0 {
		return v
	}
	v.reached[g.RPO[0]] = true

	// Widen only contributions arriving along retreating edges (loop
	// backedges, plus any irreducible cycle entry). Every cycle contains a
	// retreating edge, so this bounds all ascending chains — while values
	// arriving along forward edges (an outer induction variable entering
	// an inner loop, a branch-refined bound at a body join) keep their
	// precision instead of being blown back to ±∞. Forward contributions
	// stabilize inductively: their growth is always fed by some cycle,
	// and that cycle's own retreating edge is widened.
	rpoIndex := make([]int, nb)
	for i, b := range g.RPO {
		rpoIndex[b] = i
	}

	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			if !v.reached[b] {
				continue
			}
			out := v.in[b]
			v.walkBlock(b, &out, nil)
			for si, s := range g.Blocks[b].Succs {
				edge := out
				if feasible := refineEdge(g.Prog, g.Terminator(b), si, &edge); !feasible {
					continue
				}
				if !v.reached[s] {
					v.reached[s] = true
					v.in[s] = edge
					visits[s]++
					changed = true
					continue
				}
				retreating := rpoIndex[s] <= rpoIndex[b]
				if mergeState(&v.in[s], &edge, retreating && visits[s] >= widenAfter) {
					visits[s]++
					changed = true
				}
			}
		}
	}
	return v
}

// mergeState joins src into dst, widening grown bounds when widen is
// set. Reports whether dst changed.
func mergeState(dst, src *regState, widen bool) bool {
	changed := false
	for r := range dst {
		j := dst[r].join(src[r])
		if j != dst[r] {
			if widen {
				if j.Lo < dst[r].Lo {
					j.Lo = math.MinInt64
				}
				if j.Hi > dst[r].Hi {
					j.Hi = math.MaxInt64
				}
			}
			dst[r] = j
			changed = true
		}
	}
	return changed
}

// walkBlock applies the transfer function across a block in place. When
// visit is non-nil it is called with the state *before* each pc.
func (v *Values) walkBlock(b int, st *regState, visit func(pc int, st *regState)) {
	p := v.cfg.Prog
	for pc := v.cfg.Blocks[b].Start; pc < v.cfg.Blocks[b].End; pc++ {
		if visit != nil {
			visit(pc, st)
		}
		transfer(&p.Code[pc], st)
	}
}

// transfer applies one instruction to the abstract state.
func transfer(in *isa.Instr, st *regState) {
	a := st[in.Src1]
	c := st[in.Src2]
	set := func(iv Interval) { st[in.Dst] = iv }
	switch in.Op {
	case isa.OpConst:
		set(ConstIv(in.Imm))
	case isa.OpMov:
		set(a)
	case isa.OpAdd:
		set(AddIv(a, c))
	case isa.OpAddI:
		set(AddIv(a, ConstIv(in.Imm)))
	case isa.OpSub:
		set(subIv(a, c))
	case isa.OpMin:
		set(Interval{min64(a.Lo, c.Lo), min64(a.Hi, c.Hi)})
	case isa.OpMax:
		set(Interval{max64(a.Lo, c.Lo), max64(a.Hi, c.Hi)})
	case isa.OpMul:
		if a.IsConst() && c.IsConst() {
			set(ConstIv(mulSat(a.Lo, c.Lo)))
		} else {
			set(Top)
		}
	case isa.OpMulI:
		switch {
		case a.IsConst():
			set(ConstIv(mulSat(a.Lo, in.Imm)))
		case in.Imm >= 0 && a.Lo >= 0 && !a.IsTop():
			set(Interval{mulSat(a.Lo, in.Imm), mulSat(a.Hi, in.Imm)})
		default:
			set(Top)
		}
	case isa.OpAndI:
		switch {
		case a.IsConst():
			set(ConstIv(a.Lo & in.Imm))
		case in.Imm >= 0:
			// Mask: the result fits in [0, Imm] regardless of the input.
			set(Interval{0, in.Imm})
		default:
			set(Top)
		}
	case isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpDiv, isa.OpRem:
		if a.IsConst() && c.IsConst() {
			v, _ := isa.ALU(in.Op, a.Lo, c.Lo, in.Imm)
			set(ConstIv(v))
		} else {
			set(Top)
		}
	case isa.OpXorI:
		if a.IsConst() {
			set(ConstIv(a.Lo ^ in.Imm))
		} else {
			set(Top)
		}
	case isa.OpShlI:
		switch {
		case a.IsConst():
			set(ConstIv(shlSat(a.Lo, in.Imm)))
		case a.Lo >= 0 && !a.IsTop():
			set(Interval{shlSat(a.Lo, in.Imm), shlSat(a.Hi, in.Imm)})
		default:
			set(Top)
		}
	case isa.OpShrI:
		switch {
		case a.IsConst() && a.Lo >= 0:
			set(ConstIv(int64(uint64(a.Lo) >> uint(in.Imm&63))))
		case a.Lo >= 0 && !a.IsTop():
			set(Interval{int64(uint64(a.Lo) >> uint(in.Imm&63)), int64(uint64(a.Hi) >> uint(in.Imm&63))})
		default:
			set(Top)
		}
	case isa.OpLoad, isa.OpAtomicAdd:
		set(Top)
	default:
		if in.Op.HasDst() {
			set(Top)
		}
	}
}

func shlSat(v, s int64) int64 {
	s &= 63
	r := v << uint(s)
	if v >= 0 && (r>>uint(s)) != v {
		return math.MaxInt64
	}
	if v < 0 {
		return math.MinInt64
	}
	return r
}

// refineEdge sharpens the state along a conditional-branch edge
// (succIdx 0 is the taken edge, 1 the fallthrough, matching the order
// BuildCFG adds successors). Returns false when the edge is infeasible
// under the abstract state.
func refineEdge(p *isa.Program, termPC, succIdx int, st *regState) bool {
	in := &p.Code[termPC]
	if !in.Op.IsCondBranch() {
		return true
	}
	a := st[in.Src1]
	c := st[in.Src2]
	taken := succIdx == 0

	// Normalize every comparison to "a REL c" on the chosen edge.
	var rel string
	switch in.Op {
	case isa.OpBEQ:
		rel = ifElse(taken, "==", "!=")
	case isa.OpBNE:
		rel = ifElse(taken, "!=", "==")
	case isa.OpBLT:
		rel = ifElse(taken, "<", ">=")
	case isa.OpBGE:
		rel = ifElse(taken, ">=", "<")
	case isa.OpBLE:
		rel = ifElse(taken, "<=", ">")
	case isa.OpBGT:
		rel = ifElse(taken, ">", "<=")
	}
	switch rel {
	case "==":
		lo, hi := max64(a.Lo, c.Lo), min64(a.Hi, c.Hi)
		if lo > hi {
			return false
		}
		a, c = Interval{lo, hi}, Interval{lo, hi}
	case "!=":
		if a.IsConst() && c.IsConst() && a.Lo == c.Lo {
			return false
		}
		// Trim a constant bound off the other side: [0,1] != 0 → [1,1].
		oa, oc := a, c
		if oc.IsConst() {
			if a.Lo == oc.Lo {
				a.Lo = addSat(a.Lo, 1)
			}
			if a.Hi == oc.Lo {
				a.Hi = addSat(a.Hi, -1)
			}
		}
		if oa.IsConst() {
			if c.Lo == oa.Lo {
				c.Lo = addSat(c.Lo, 1)
			}
			if c.Hi == oa.Lo {
				c.Hi = addSat(c.Hi, -1)
			}
		}
	case "<":
		a.Hi = min64(a.Hi, addSat(c.Hi, -1))
		c.Lo = max64(c.Lo, addSat(a.Lo, 1))
	case "<=":
		a.Hi = min64(a.Hi, c.Hi)
		c.Lo = max64(c.Lo, a.Lo)
	case ">":
		a.Lo = max64(a.Lo, addSat(c.Lo, 1))
		c.Hi = min64(c.Hi, addSat(a.Hi, -1))
	case ">=":
		a.Lo = max64(a.Lo, c.Lo)
		c.Hi = min64(c.Hi, a.Hi)
	}
	if a.Lo > a.Hi || c.Lo > c.Hi {
		return false
	}
	st[in.Src1] = a
	st[in.Src2] = c
	return true
}

func ifElse(cond bool, a, b string) string {
	if cond {
		return a
	}
	return b
}

// ReachedPC reports whether the abstract interpretation found the
// instruction reachable (edge-feasibility can prune paths plain CFG
// reachability keeps).
func (v *Values) ReachedPC(pc int) bool { return v.reached[v.cfg.BlockOf[pc]] }

// RegAt returns the abstract value of register r immediately before pc.
func (v *Values) RegAt(pc int, r isa.Reg) Interval {
	b := v.cfg.BlockOf[pc]
	if !v.reached[b] {
		return Top
	}
	st := v.in[b]
	var out Interval
	v.walkBlock(b, &st, func(at int, cur *regState) {
		if at == pc {
			out = cur[r]
		}
	})
	return out
}

// MemAddr returns the abstract address interval of the memory operand
// mem[Src1+Imm] of the instruction at pc.
func (v *Values) MemAddr(pc int) Interval {
	in := &v.cfg.Prog.Code[pc]
	return AddIv(v.RegAt(pc, in.Src1), ConstIv(in.Imm))
}
