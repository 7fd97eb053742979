package isa

import "fmt"

// Builder assembles a Program with backpatched labels, a bump register
// allocator, and loop/function annotations. Workload kernels and the
// transformation passes all emit code through it.
//
// All emitters take explicit destination registers so that loop-carried
// values are natural to express; Temp and Imm allocate fresh registers for
// intermediate values.
type Builder struct {
	prog     Program
	nextReg  Reg
	loops    []int // stack of open loop IDs
	fn       string
	labels   []label
	finished bool
}

type label struct {
	pc      int   // bound instruction index, or -1
	patches []int // instruction indices whose Target awaits binding
}

// Label identifies a branch target created by NewLabel.
type Label int

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{prog: Program{Name: name}}
}

// Reg allocates a fresh register. It panics when the register file is
// exhausted; kernels are expected to stay well under NumRegs.
func (b *Builder) Reg() Reg {
	if b.nextReg >= NumRegs {
		panic(fmt.Sprintf("isa: program %q exceeds %d registers", b.prog.Name, NumRegs))
	}
	r := b.nextReg
	b.nextReg++
	return r
}

// ReserveRegs marks registers [0, n) as in use so subsequent allocations
// start above them. The slice extractor reserves the source program's
// registers this way: the extracted code reuses them verbatim and relies
// on the spawn-time register copy for live-ins.
func (b *Builder) ReserveRegs(n int) {
	if n < 0 || n > NumRegs {
		panic(fmt.Sprintf("isa: ReserveRegs(%d) out of range", n))
	}
	if Reg(n) > b.nextReg {
		b.nextReg = Reg(n)
	}
}

// BranchOp emits the given branch opcode targeting label l (the slice
// extractor uses it to re-emit arbitrary branches).
func (b *Builder) BranchOp(op Op, a, c Reg, l Label) int {
	if !op.IsBranch() {
		panic(fmt.Sprintf("isa: BranchOp with non-branch %s", op))
	}
	return b.branch(op, a, c, l)
}

// EmitRaw appends a non-branch instruction verbatim (targets are not
// remapped; use BranchOp for branches).
func (b *Builder) EmitRaw(in Instr) int {
	if in.Op.IsBranch() {
		panic("isa: EmitRaw cannot emit branches")
	}
	in.Loop = -1
	return b.emit(in)
}

// Func sets the current function/region name recorded on loops opened
// after this call (the heuristic's per-function coverage uses it).
func (b *Builder) Func(name string) { b.fn = name }

// Len returns the index the next emitted instruction will occupy.
func (b *Builder) Len() int { return len(b.prog.Code) }

// emit appends an instruction tagged with the innermost open loop and
// returns its index.
func (b *Builder) emit(in Instr) int {
	in.Loop = -1
	if n := len(b.loops); n > 0 {
		in.Loop = int32(b.loops[n-1])
	}
	b.prog.Code = append(b.prog.Code, in)
	return len(b.prog.Code) - 1
}

// Imm allocates a register and loads the constant v into it.
func (b *Builder) Imm(v int64) Reg {
	r := b.Reg()
	b.Const(r, v)
	return r
}

// Const emits Dst = v.
func (b *Builder) Const(dst Reg, v int64) int {
	return b.emit(Instr{Op: OpConst, Dst: dst, Imm: v})
}

// Mov emits Dst = Src.
func (b *Builder) Mov(dst, src Reg) int {
	return b.emit(Instr{Op: OpMov, Dst: dst, Src1: src})
}

// ALU register-register forms.
func (b *Builder) Add(dst, a, c Reg) int { return b.emit(Instr{Op: OpAdd, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Sub(dst, a, c Reg) int { return b.emit(Instr{Op: OpSub, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Mul(dst, a, c Reg) int { return b.emit(Instr{Op: OpMul, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Div(dst, a, c Reg) int { return b.emit(Instr{Op: OpDiv, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Rem(dst, a, c Reg) int { return b.emit(Instr{Op: OpRem, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) And(dst, a, c Reg) int { return b.emit(Instr{Op: OpAnd, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Or(dst, a, c Reg) int  { return b.emit(Instr{Op: OpOr, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Xor(dst, a, c Reg) int { return b.emit(Instr{Op: OpXor, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Shl(dst, a, c Reg) int { return b.emit(Instr{Op: OpShl, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Shr(dst, a, c Reg) int { return b.emit(Instr{Op: OpShr, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Min(dst, a, c Reg) int { return b.emit(Instr{Op: OpMin, Dst: dst, Src1: a, Src2: c}) }
func (b *Builder) Max(dst, a, c Reg) int { return b.emit(Instr{Op: OpMax, Dst: dst, Src1: a, Src2: c}) }

// ALU register-immediate forms.
func (b *Builder) AddI(dst, a Reg, imm int64) int {
	return b.emit(Instr{Op: OpAddI, Dst: dst, Src1: a, Imm: imm})
}
func (b *Builder) MulI(dst, a Reg, imm int64) int {
	return b.emit(Instr{Op: OpMulI, Dst: dst, Src1: a, Imm: imm})
}
func (b *Builder) AndI(dst, a Reg, imm int64) int {
	return b.emit(Instr{Op: OpAndI, Dst: dst, Src1: a, Imm: imm})
}
func (b *Builder) XorI(dst, a Reg, imm int64) int {
	return b.emit(Instr{Op: OpXorI, Dst: dst, Src1: a, Imm: imm})
}
func (b *Builder) ShlI(dst, a Reg, imm int64) int {
	return b.emit(Instr{Op: OpShlI, Dst: dst, Src1: a, Imm: imm})
}
func (b *Builder) ShrI(dst, a Reg, imm int64) int {
	return b.emit(Instr{Op: OpShrI, Dst: dst, Src1: a, Imm: imm})
}

// Memory forms. addr = base + off words.
func (b *Builder) Load(dst, base Reg, off int64) int {
	return b.emit(Instr{Op: OpLoad, Dst: dst, Src1: base, Imm: off})
}
func (b *Builder) Store(base Reg, off int64, val Reg) int {
	return b.emit(Instr{Op: OpStore, Src1: base, Imm: off, Src2: val})
}
func (b *Builder) Prefetch(base Reg, off int64) int {
	return b.emit(Instr{Op: OpPrefetch, Src1: base, Imm: off})
}

// AtomicAdd emits mem[base+off] += val with the post-add value in dst.
func (b *Builder) AtomicAdd(dst, base Reg, off int64, val Reg) int {
	return b.emit(Instr{Op: OpAtomicAdd, Dst: dst, Src1: base, Imm: off, Src2: val})
}

// Serialize emits the pipeline-drain instruction (paper §4.3.1).
func (b *Builder) Serialize() int { return b.emit(Instr{Op: OpSerialize}) }

// Spawn activates helper program helperID on the sibling SMT context.
func (b *Builder) Spawn(helperID int) int {
	return b.emit(Instr{Op: OpSpawn, Imm: int64(helperID)})
}

// Join deactivates the helper thread immediately (Ghost Threading's
// DeactivateSmtThread: the ghost is killed mid-flight; it modifies no
// application state, so this is safe).
func (b *Builder) Join() int { return b.emit(Instr{Op: OpJoin}) }

// JoinWait blocks until the helper finishes, then releases the context.
// The SMT-parallelization transform uses it to wait for its worker.
func (b *Builder) JoinWait() int { return b.emit(Instr{Op: OpJoin, Imm: 1}) }

// Halt terminates the program.
func (b *Builder) Halt() int { return b.emit(Instr{Op: OpHalt}) }

// Nop emits a no-op (used by tests and to model filler work).
func (b *Builder) Nop() int { return b.emit(Instr{Op: OpNop}) }

// NewLabel creates an unbound branch target.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, label{pc: -1})
	return Label(len(b.labels) - 1)
}

// Bind attaches the label to the next emitted instruction.
func (b *Builder) Bind(l Label) {
	lb := &b.labels[l]
	if lb.pc >= 0 {
		panic(fmt.Sprintf("isa: label %d bound twice in %q", l, b.prog.Name))
	}
	lb.pc = len(b.prog.Code)
}

// HereLabel creates a label bound to the next emitted instruction.
func (b *Builder) HereLabel() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

func (b *Builder) branch(op Op, a, c Reg, l Label) int {
	idx := b.emit(Instr{Op: op, Src1: a, Src2: c, Target: -1})
	lb := &b.labels[l]
	if lb.pc >= 0 {
		b.prog.Code[idx].Target = int32(lb.pc)
	} else {
		lb.patches = append(lb.patches, idx)
	}
	return idx
}

// Jmp and the conditional branches target label l.
func (b *Builder) Jmp(l Label) int           { return b.branch(OpJmp, 0, 0, l) }
func (b *Builder) BEQ(a, c Reg, l Label) int { return b.branch(OpBEQ, a, c, l) }
func (b *Builder) BNE(a, c Reg, l Label) int { return b.branch(OpBNE, a, c, l) }
func (b *Builder) BLT(a, c Reg, l Label) int { return b.branch(OpBLT, a, c, l) }
func (b *Builder) BGE(a, c Reg, l Label) int { return b.branch(OpBGE, a, c, l) }
func (b *Builder) BLE(a, c Reg, l Label) int { return b.branch(OpBLE, a, c, l) }
func (b *Builder) BGT(a, c Reg, l Label) int { return b.branch(OpBGT, a, c, l) }

// MarkTarget flags the most recent instruction as an annotated target load.
func (b *Builder) MarkTarget() { b.flagLast(FlagTargetLoad) }

// FlagRange applies f to every instruction in [from, to) (used by the
// sync-segment generator to mark its code).
func (b *Builder) FlagRange(from, to int, f Flag) {
	for i := from; i < to && i < len(b.prog.Code); i++ {
		b.prog.Code[i].Flags |= f
	}
}

func (b *Builder) flagLast(f Flag) {
	if len(b.prog.Code) == 0 {
		panic("isa: flagging with no instructions emitted")
	}
	b.prog.Code[len(b.prog.Code)-1].Flags |= f
}

// LoopBegin opens a loop annotation named name; its body spans until the
// matching LoopEnd. Returns the loop ID.
func (b *Builder) LoopBegin(name string) int {
	id := len(b.prog.Loops)
	parent := -1
	if n := len(b.loops); n > 0 {
		parent = b.loops[n-1]
	}
	b.prog.Loops = append(b.prog.Loops, Loop{
		ID: id, Name: name, Func: b.fn, Parent: parent,
		Head: len(b.prog.Code), Backedge: -1,
	})
	b.loops = append(b.loops, id)
	return id
}

// LoopEnd closes the innermost open loop; it must match id. The most
// recently emitted branch inside the loop body is recorded as the
// backedge unless SetBackedge was called explicitly.
func (b *Builder) LoopEnd(id int) {
	n := len(b.loops)
	if n == 0 || b.loops[n-1] != id {
		panic(fmt.Sprintf("isa: mismatched LoopEnd(%d) in %q", id, b.prog.Name))
	}
	b.loops = b.loops[:n-1]
	l := &b.prog.Loops[id]
	l.End = len(b.prog.Code)
	if l.Backedge < 0 {
		for i := l.End - 1; i >= l.Head; i-- {
			if b.prog.Code[i].Op.IsBranch() {
				l.Backedge = i
				b.prog.Code[i].Flags |= FlagBackedge
				break
			}
		}
	}
}

// SetBackedge records the instruction index of loop id's backedge branch.
func (b *Builder) SetBackedge(id, pc int) {
	b.prog.Loops[id].Backedge = pc
	b.prog.Code[pc].Flags |= FlagBackedge
}

// CountedLoop emits a canonical "for i = start; i < limit; i++" loop with
// body generated by fn(i). The induction register is freshly allocated and
// passed to fn. Returns the loop ID.
func (b *Builder) CountedLoop(name string, start, limit Reg, fn func(i Reg)) int {
	i := b.Reg()
	b.Mov(i, start)
	id := b.LoopBegin(name)
	head := b.HereLabel()
	done := b.NewLabel()
	b.BGE(i, limit, done)
	fn(i)
	b.AddI(i, i, 1)
	be := b.Jmp(head)
	b.SetBackedge(id, be)
	b.LoopEnd(id)
	b.Bind(done)
	return id
}

// Build backpatches labels, validates, and returns the finished program.
// The builder must not be reused afterwards.
func (b *Builder) Build() (*Program, error) {
	if b.finished {
		return nil, fmt.Errorf("isa: builder for %q already finished", b.prog.Name)
	}
	if len(b.loops) != 0 {
		return nil, fmt.Errorf("isa: %d unclosed loops in %q", len(b.loops), b.prog.Name)
	}
	for i := range b.labels {
		lb := &b.labels[i]
		if lb.pc < 0 {
			if len(lb.patches) == 0 {
				continue // unused, never bound: harmless
			}
			return nil, fmt.Errorf("isa: label %d in %q used but never bound", i, b.prog.Name)
		}
		for _, pc := range lb.patches {
			b.prog.Code[pc].Target = int32(lb.pc)
		}
	}
	b.finished = true
	p := b.prog
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// MustBuild is Build panicking on error; workload builders use it since
// construction errors are programming bugs.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
