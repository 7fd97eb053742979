package cpu

import "ghostthread/internal/isa"

// Instruction classes for decoded dispatch. clALU covers every
// straight-line functional op (including nop): the ops that touch no
// memory, control flow, or thread state.
const (
	clALU = iota
	clLoad
	clStore
	clPrefetch
	clAtomic
	clSerialize
	clJmp
	clCondBr
	clSpawn
	clJoin
	clHalt
)

// issue-latency classes, resolved against the core's Config at issue time
// (Core.lat): index 0 = IntLat, 1 = MulLat, 2 = DivLat.
const (
	latInt = iota
	latMul
	latDiv
)

// dInstr is one pre-decoded instruction: the dispatch class and
// issue-latency class precomputed and the hard-branch flag test folded to
// a boolean, so issue, completion, commit and the event-skip lookahead
// never re-interpret an isa.Instr.
type dInstr struct {
	class    uint8
	src1     uint8
	src2     uint8
	nsrc     uint8
	latClass uint8
	hard     bool  // conditional branch with FlagHardBranch
	cmeta    uint8 // commit metadata, copied into the ROB slot
	imm      int64
}

// Commit-side metadata (dInstr.cmeta / thread.cmeta): which queue entry,
// if any, the retiring instruction releases, so commit never touches the
// dInstr.
const (
	cmetaQNone  = 0
	cmetaQStore = 1
	cmetaQLoad  = 2 // loads, prefetches, atomics share the load queue
)

// decodedProgram caches the decoded form of one isa.Program, built once
// per Core.Load.
//
// There is no invalidation: isa.Program is immutable once built (see the
// package isa contract) and the decoded image is keyed to the *Program a
// thread is running, dying with the Load/spawn that installed it. A
// re-spawned helper re-uses the image decoded at Load.
type decodedProgram struct {
	prog *isa.Program
	code []dInstr
}

func decodeProgram(p *isa.Program) *decodedProgram {
	if p == nil {
		return nil
	}
	dp := &decodedProgram{prog: p, code: make([]dInstr, len(p.Code))}
	for i := range p.Code {
		in := &p.Code[i]
		d := &dp.code[i]
		d.src1 = uint8(in.Src1)
		d.src2 = uint8(in.Src2)
		d.nsrc = uint8(in.Op.NumSrcs())
		d.imm = in.Imm
		d.hard = in.Op.IsCondBranch() && in.HasFlag(isa.FlagHardBranch)
		switch in.Op {
		case isa.OpLoad:
			d.class = clLoad
		case isa.OpStore:
			d.class = clStore
		case isa.OpPrefetch:
			d.class = clPrefetch
		case isa.OpAtomicAdd:
			d.class = clAtomic
		case isa.OpSerialize:
			d.class = clSerialize
		case isa.OpJmp:
			d.class = clJmp
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLE, isa.OpBGT:
			d.class = clCondBr
		case isa.OpSpawn:
			d.class = clSpawn
		case isa.OpJoin:
			d.class = clJoin
		case isa.OpHalt:
			d.class = clHalt
		default:
			d.class = clALU
		}
		switch in.Op {
		case isa.OpMul:
			d.latClass = latMul
		case isa.OpDiv, isa.OpRem:
			d.latClass = latDiv
		default:
			d.latClass = latInt
		}
		switch d.class {
		case clStore:
			d.cmeta = cmetaQStore
		case clLoad, clPrefetch, clAtomic:
			d.cmeta = cmetaQLoad
		}
	}
	return dp
}
