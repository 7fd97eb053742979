package analysis

import "ghostthread/internal/isa"

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
