package analysis

import (
	"math/bits"

	"ghostthread/internal/isa"
)

// RegSet is a bitset over the register file.
type RegSet [isa.NumRegs / 64]uint64

// Add inserts a register.
func (s *RegSet) Add(r isa.Reg) { s[r/64] |= 1 << (r % 64) }

// Has reports membership.
func (s *RegSet) Has(r isa.Reg) bool { return s[r/64]&(1<<(r%64)) != 0 }

// Remove deletes a register.
func (s *RegSet) Remove(r isa.Reg) { s[r/64] &^= 1 << (r % 64) }

// Union merges o into s, reporting whether s changed.
func (s *RegSet) Union(o *RegSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Count returns the number of registers in the set.
func (s *RegSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// srcRegs appends the source registers the instruction reads.
func srcRegs(in *isa.Instr) []isa.Reg {
	switch in.Op.NumSrcs() {
	case 1:
		return []isa.Reg{in.Src1}
	case 2:
		return []isa.Reg{in.Src1, in.Src2}
	}
	return nil
}

// DefUse holds reaching-definition chains: for every use of a register,
// the set of definition sites that may reach it, and the reverse map.
type DefUse struct {
	// DefsAt[pc] lists the definition PCs that may reach the uses of
	// instruction pc (union over its source registers).
	DefsAt map[int][]int
	// defsOf[pc][r] lists the definition PCs of register r reaching pc.
	defsOf map[int]map[isa.Reg][]int
	// UsesOf[def] lists the PCs whose uses def may reach.
	UsesOf map[int][]int
}

// DefsOfReg returns the definition PCs of register r that may reach the
// use at pc.
func (du *DefUse) DefsOfReg(pc int, r isa.Reg) []int { return du.defsOf[pc][r] }

// ReachingDefs computes def-use chains over the CFG with an iterative
// reaching-definitions analysis (defs are instruction PCs; a definition
// of a register kills all earlier definitions of the same register).
func (g *CFG) ReachingDefs() *DefUse {
	p := g.Prog
	nb := len(g.Blocks)

	// Per-block out-state: definition PC set per register, represented as
	// sorted slices (programs are small; simplicity over asymptotics).
	type state = map[isa.Reg][]int
	out := make([]state, nb)
	for i := range out {
		out[i] = state{}
	}

	mergeInto := func(dst state, src state) bool {
		changed := false
		for r, defs := range src {
			have := dst[r]
			seen := map[int]bool{}
			for _, d := range have {
				seen[d] = true
			}
			for _, d := range defs {
				if !seen[d] {
					have = append(have, d)
					seen[d] = true
					changed = true
				}
			}
			dst[r] = have
		}
		return changed
	}

	transfer := func(b int, in state) state {
		cur := state{}
		mergeInto(cur, in)
		for pc := g.Blocks[b].Start; pc < g.Blocks[b].End; pc++ {
			instr := &p.Code[pc]
			if instr.Op.HasDst() {
				cur[instr.Dst] = []int{pc}
			}
		}
		return cur
	}

	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			in := state{}
			for _, pr := range g.Blocks[b].Preds {
				mergeInto(in, out[pr])
			}
			newOut := transfer(b, in)
			if mergeInto(out[b], newOut) {
				changed = true
			}
		}
	}

	du := &DefUse{DefsAt: map[int][]int{}, defsOf: map[int]map[isa.Reg][]int{}, UsesOf: map[int][]int{}}
	for _, b := range g.RPO {
		in := state{}
		for _, pr := range g.Blocks[b].Preds {
			mergeInto(in, out[pr])
		}
		for pc := g.Blocks[b].Start; pc < g.Blocks[b].End; pc++ {
			instr := &p.Code[pc]
			for _, r := range srcRegs(instr) {
				defs := in[r]
				if len(defs) > 0 {
					du.DefsAt[pc] = append(du.DefsAt[pc], defs...)
					m := du.defsOf[pc]
					if m == nil {
						m = map[isa.Reg][]int{}
						du.defsOf[pc] = m
					}
					m[r] = append(m[r], defs...)
					for _, d := range defs {
						du.UsesOf[d] = append(du.UsesOf[d], pc)
					}
				}
			}
			if instr.Op.HasDst() {
				in[instr.Dst] = []int{pc}
			}
		}
	}
	return du
}
