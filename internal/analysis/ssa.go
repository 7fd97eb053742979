package analysis

import (
	"slices"

	"ghostthread/internal/isa"
)

// This file builds pruned SSA form over the reconstructed CFG: phi
// placement at iterated dominance frontiers, restricted to registers live
// into the frontier block, followed by the classic dominator-tree
// renaming walk. The symbolic evaluator (symexec.go) evaluates the
// resulting value graph, and the checkers read def-use chains off it
// (Uses, DefsOf); nothing here rewrites the program.

// SSAValKind distinguishes the three definition forms of an SSA value.
type SSAValKind uint8

// SSA value kinds.
const (
	// SSAParam is a register's value at program entry (for ghost
	// programs: the spawn-time register-file copy).
	SSAParam SSAValKind = iota
	// SSAInstr is the value defined by one instruction.
	SSAInstr
	// SSAPhi merges values at a control-flow join.
	SSAPhi
)

// SSAValue is one value in the pruned-SSA value graph.
type SSAValue struct {
	Kind  SSAValKind
	Reg   isa.Reg
	PC    int   // defining instruction (SSAInstr), else -1
	Block int   // defining block (SSAPhi), else -1
	Args  []int // phi arguments, aligned with the block's Preds
}

// SSA is the pruned-SSA rename of a program: every register use and
// definition resolved to a value ID.
type SSA struct {
	G    *CFG
	Vals []SSAValue

	// UseVal[pc] holds the value IDs consumed by Src1/Src2 (-1 when the
	// instruction has fewer sources); DefVal[pc] the value the
	// instruction defines (-1 for instructions without a destination).
	UseVal [][2]int
	DefVal []int

	// PhisAt[block] lists the phi value IDs placed at the block's entry.
	PhisAt [][]int

	// EntryVal[block][reg] is the value ID of reg on entry to the block
	// (after the block's phis), or -1 when the register is dead there and
	// was never renamed. Unreachable blocks have nil maps.
	entryVal []map[isa.Reg]int

	params map[isa.Reg]int

	// readers[v] lists the PCs of the instructions that read value v and
	// phiArgOf[v] the phis that take it as an argument: the forward edges
	// of the value graph, indexed on the first Uses query.
	readers, phiArgOf [][]int
}

// DomFrontiers computes the dominance frontier of every block with the
// Cooper/Harvey/Kennedy runner algorithm.
func (g *CFG) DomFrontiers(idom []int) [][]int {
	df := make([][]int, len(g.Blocks))
	seen := make([]map[int]bool, len(g.Blocks))
	for _, b := range g.RPO {
		if len(g.Blocks[b].Preds) < 2 {
			continue
		}
		for _, p := range g.Blocks[b].Preds {
			if !g.Reachable(p) {
				continue
			}
			for runner := p; runner != idom[b] && runner >= 0; runner = idom[runner] {
				if seen[runner] == nil {
					seen[runner] = map[int]bool{}
				}
				if !seen[runner][b] {
					seen[runner][b] = true
					df[runner] = append(df[runner], b)
				}
				if runner == idom[runner] { // entry block self-loop guard
					break
				}
			}
		}
	}
	return df
}

// liveIn computes per-block live-in register sets (the pruning oracle:
// a phi for r is placed at a join only when r is live into it).
func (g *CFG) liveIn() []RegSet {
	p := g.Prog
	nb := len(g.Blocks)
	in := make([]RegSet, nb)
	out := make([]RegSet, nb)

	blockIn := func(b int) RegSet {
		live := out[b]
		for pc := g.Blocks[b].End - 1; pc >= g.Blocks[b].Start; pc-- {
			instr := &p.Code[pc]
			if instr.Op.HasDst() {
				live.Remove(instr.Dst)
			}
			for _, r := range srcRegs(instr) {
				live.Add(r)
			}
		}
		return live
	}

	for changed := true; changed; {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			var o RegSet
			for _, s := range g.Blocks[b].Succs {
				o.Union(&in[s])
			}
			out[b] = o
			n := blockIn(b)
			if in[b] != n {
				in[b] = n
				changed = true
			}
		}
	}
	return in
}

// BuildSSA renames the program into pruned SSA form over g's immediate
// dominators. Only reachable blocks are renamed; uses in unreachable
// code keep value ID -1.
func BuildSSA(g *CFG, idom []int) *SSA {
	n := len(g.Prog.Code)
	s := &SSA{
		G:        g,
		UseVal:   make([][2]int, n),
		DefVal:   make([]int, n),
		PhisAt:   make([][]int, len(g.Blocks)),
		entryVal: make([]map[isa.Reg]int, len(g.Blocks)),
		params:   map[isa.Reg]int{},
	}
	for pc := range s.UseVal {
		s.UseVal[pc] = [2]int{-1, -1}
		s.DefVal[pc] = -1
	}
	if len(g.Blocks) == 0 {
		return s
	}

	df := g.DomFrontiers(idom)
	live := g.liveIn()

	// Dominator-tree children, visited in RPO order for determinism.
	entry := g.RPO[0]
	children := make([][]int, len(g.Blocks))
	for _, b := range g.RPO {
		if b == entry || idom[b] < 0 {
			continue
		}
		children[idom[b]] = append(children[idom[b]], b)
	}

	// Pruned phi placement: iterated dominance frontier of each
	// register's definition blocks, filtered by liveness.
	defBlocks := map[isa.Reg][]int{}
	for _, b := range g.RPO {
		var defs RegSet
		for pc := g.Blocks[b].Start; pc < g.Blocks[b].End; pc++ {
			in := &g.Prog.Code[pc]
			if in.Op.HasDst() {
				defs.Add(in.Dst)
			}
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if defs.Has(r) {
				defBlocks[r] = append(defBlocks[r], b)
			}
		}
	}
	phiFor := make([]map[isa.Reg]int, len(g.Blocks)) // block -> reg -> phi value
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		work := append([]int(nil), defBlocks[r]...)
		placed := map[int]bool{}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range df[b] {
				if placed[f] || !live[f].Has(r) {
					continue
				}
				placed[f] = true
				id := len(s.Vals)
				s.Vals = append(s.Vals, SSAValue{
					Kind: SSAPhi, Reg: r, PC: -1, Block: f,
					Args: make([]int, len(g.Blocks[f].Preds)),
				})
				for i := range s.Vals[id].Args {
					s.Vals[id].Args[i] = -1
				}
				if phiFor[f] == nil {
					phiFor[f] = map[isa.Reg]int{}
				}
				phiFor[f][r] = id
				s.PhisAt[f] = append(s.PhisAt[f], id)
				work = append(work, f)
			}
		}
	}

	// Renaming walk over the dominator tree. The stack top per register is
	// the current SSA value; a use with no definition above it becomes a
	// shared SSAParam value (the spawn-time register file).
	stacks := make([][]int, isa.NumRegs)
	cur := func(r isa.Reg) int {
		if st := stacks[r]; len(st) > 0 {
			return st[len(st)-1]
		}
		id, ok := s.params[r]
		if !ok {
			id = len(s.Vals)
			s.Vals = append(s.Vals, SSAValue{Kind: SSAParam, Reg: r, PC: -1, Block: -1})
			s.params[r] = id
		}
		return id
	}

	var walk func(b int)
	walk = func(b int) {
		pushed := 0
		var pushedRegs []isa.Reg
		push := func(r isa.Reg, id int) {
			stacks[r] = append(stacks[r], id)
			pushedRegs = append(pushedRegs, r)
			pushed++
		}

		for _, id := range s.PhisAt[b] {
			push(s.Vals[id].Reg, id)
		}
		ev := map[isa.Reg]int{}
		s.entryVal[b] = ev
		for r, st := range stacks {
			if len(st) > 0 {
				ev[isa.Reg(r)] = st[len(st)-1]
			}
		}

		for pc := g.Blocks[b].Start; pc < g.Blocks[b].End; pc++ {
			in := &g.Prog.Code[pc]
			ns := in.Op.NumSrcs()
			if ns >= 1 {
				s.UseVal[pc][0] = cur(in.Src1)
			}
			if ns >= 2 {
				s.UseVal[pc][1] = cur(in.Src2)
			}
			if in.Op.HasDst() {
				id := len(s.Vals)
				s.Vals = append(s.Vals, SSAValue{Kind: SSAInstr, Reg: in.Dst, PC: pc, Block: b})
				s.DefVal[pc] = id
				push(in.Dst, id)
			}
		}

		for _, succ := range g.Blocks[b].Succs {
			pi := -1
			for i, p := range g.Blocks[succ].Preds {
				if p == b {
					pi = i
					break
				}
			}
			if pi < 0 {
				continue
			}
			for _, id := range s.PhisAt[succ] {
				s.Vals[id].Args[pi] = cur(s.Vals[id].Reg)
			}
		}

		for _, c := range children[b] {
			walk(c)
		}
		for i := pushed - 1; i >= 0; i-- {
			r := pushedRegs[i]
			stacks[r] = stacks[r][:len(stacks[r])-1]
		}
	}
	walk(entry)
	return s
}

// ValueOfRegAt returns the SSA value of register r immediately before pc,
// or -1 when pc is unreachable.
func (s *SSA) ValueOfRegAt(pc int, r isa.Reg) int {
	b := s.G.BlockOf[pc]
	ev := s.entryVal[b]
	if ev == nil {
		return -1
	}
	id, ok := ev[r]
	if !ok {
		id = -2 // sentinel: fall back to a param below
	}
	for at := s.G.Blocks[b].Start; at < pc; at++ {
		in := &s.G.Prog.Code[at]
		if in.Op.HasDst() && in.Dst == r {
			id = s.DefVal[at]
		}
	}
	if id == -2 {
		return s.Param(r)
	}
	return id
}

// Param returns the SSAParam value for register r, creating it on demand
// (the symbolic evaluator resolves ghost live-ins through it).
func (s *SSA) Param(r isa.Reg) int {
	if id, ok := s.params[r]; ok {
		return id
	}
	id := len(s.Vals)
	s.Vals = append(s.Vals, SSAValue{Kind: SSAParam, Reg: r, PC: -1, Block: -1})
	s.params[r] = id
	return id
}

// Uses returns the PCs of the instructions that read the value the
// instruction at pc defines, directly or through phis, in ascending
// order: the def-use chain of that definition. It is nil when pc defines
// no value or nothing reads it.
func (s *SSA) Uses(pc int) []int {
	if s.DefVal[pc] < 0 {
		return nil
	}
	if s.readers == nil {
		s.readers = make([][]int, len(s.Vals))
		s.phiArgOf = make([][]int, len(s.Vals))
		for upc, ids := range s.UseVal {
			for _, id := range ids {
				if id >= 0 {
					s.readers[id] = append(s.readers[id], upc)
				}
			}
		}
		for _, phis := range s.PhisAt {
			for _, phi := range phis {
				for _, id := range s.Vals[phi].Args {
					if id >= 0 {
						s.phiArgOf[id] = append(s.phiArgOf[id], phi)
					}
				}
			}
		}
	}
	var out []int
	walkValues(s.DefVal[pc], func(id int) []int {
		out = append(out, s.readers[id]...)
		return s.phiArgOf[id]
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// DefsOf returns the PCs of the instructions whose definition of r may
// reach its use at pc, following phi arguments back to their
// definitions, in ascending order: the use-def chain of that operand. r
// must be a source register of the instruction at pc. A path on which r
// keeps its entry value contributes no PC, so nil means r is a live-in
// there (for a ghost: the spawn-time register file).
func (s *SSA) DefsOf(pc int, r isa.Reg) []int {
	var out []int
	for i, src := range srcRegs(&s.G.Prog.Code[pc]) {
		if src != r || s.UseVal[pc][i] < 0 {
			continue
		}
		walkValues(s.UseVal[pc][i], func(id int) []int {
			v := &s.Vals[id]
			if v.Kind == SSAInstr {
				out = append(out, v.PC)
			}
			return v.Args
		})
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// walkValues visits every SSA value reachable from id along next, each
// once.
func walkValues(id int, next func(id int) []int) {
	seen := map[int]bool{}
	for work := []int{id}; len(work) > 0; {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		if id < 0 || seen[id] {
			continue
		}
		seen[id] = true
		work = append(work, next(id)...)
	}
}
