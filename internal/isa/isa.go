// Package isa defines the register-machine intermediate representation
// executed by the simulated SMT core (internal/cpu). Workload kernels are
// built in this IR by the builders in internal/workloads, and the Ghost
// Threading passes (internal/core, internal/slice) are source-to-source
// transformations over it.
//
// The machine is deliberately simple: 64 general-purpose 64-bit integer
// registers per hardware thread, a flat word-addressed shared memory
// (internal/mem), and a small set of opcodes. Memory operands are always
// "register + immediate" word addresses. Branches carry absolute
// instruction-index targets.
//
// Two opcodes exist purely for the paper's mechanisms:
//
//   - OpPrefetch: a non-blocking load. It occupies a load-queue slot and an
//     MSHR like a load, but retires without waiting for the fill.
//   - OpSerialize: models the x86 `serialize` instruction. Dispatching it
//     stops instruction fetch for the thread until every older instruction
//     has completed, which is the throttling primitive Ghost Threading's
//     synchronization segment relies on (paper §4.3.1).
package isa

import (
	"fmt"
	"strings"
)

// Reg names one of the general-purpose registers of a hardware thread.
type Reg uint8

// NumRegs is the size of each thread's register file (generous: builder
// register allocation is bump-only, and the larger kernels use ~80).
const NumRegs = 128

// Op enumerates the IR opcodes.
type Op uint8

// Opcode space. ALU ops write Dst from Src1 op Src2 (or Imm for the *I
// forms). Memory ops address mem[Src1+Imm].
const (
	OpNop Op = iota

	// Data movement.
	OpConst // Dst = Imm
	OpMov   // Dst = Src1

	// Register-register ALU.
	OpAdd // Dst = Src1 + Src2
	OpSub // Dst = Src1 - Src2
	OpMul // Dst = Src1 * Src2
	OpDiv // Dst = Src1 / Src2 (0 if Src2 == 0)
	OpRem // Dst = Src1 % Src2 (0 if Src2 == 0)
	OpAnd // Dst = Src1 & Src2
	OpOr  // Dst = Src1 | Src2
	OpXor // Dst = Src1 ^ Src2
	OpShl // Dst = Src1 << (Src2 & 63)
	OpShr // Dst = int64(uint64(Src1) >> (Src2 & 63))
	OpMin // Dst = min(Src1, Src2)
	OpMax // Dst = max(Src1, Src2)

	// Register-immediate ALU.
	OpAddI // Dst = Src1 + Imm
	OpMulI // Dst = Src1 * Imm
	OpAndI // Dst = Src1 & Imm
	OpXorI // Dst = Src1 ^ Imm
	OpShlI // Dst = Src1 << Imm
	OpShrI // Dst = int64(uint64(Src1) >> Imm)

	// Memory.
	OpLoad      // Dst = mem[Src1 + Imm]
	OpStore     // mem[Src1 + Imm] = Src2
	OpPrefetch  // non-blocking fetch of the line containing mem[Src1 + Imm]
	OpAtomicAdd // mem[Src1 + Imm] += Src2; Dst = new value (Dst optional)

	// Synchronization.
	OpSerialize // drain: block fetch until all older instructions complete

	// Control flow. Targets are absolute instruction indices.
	OpJmp // unconditional
	OpBEQ // if Src1 == Src2 goto Target
	OpBNE // if Src1 != Src2 goto Target
	OpBLT // if Src1 <  Src2 goto Target
	OpBGE // if Src1 >= Src2 goto Target
	OpBLE // if Src1 <= Src2 goto Target
	OpBGT // if Src1 >  Src2 goto Target

	// Thread management (paper §4.2.2). OpSpawn activates helper program
	// Imm on the sibling SMT context; OpJoin deactivates it. Both cost
	// thousands of cycles, configured in the core model.
	OpSpawn
	OpJoin

	OpHalt // end of program

	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpMin: "min", OpMax: "max",
	OpAddI: "addi", OpMulI: "muli", OpAndI: "andi", OpXorI: "xori",
	OpShlI: "shli", OpShrI: "shri",
	OpLoad: "load", OpStore: "store", OpPrefetch: "prefetch",
	OpAtomicAdd: "atomicadd", OpSerialize: "serialize",
	OpJmp: "jmp", OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLE: "ble", OpBGT: "bgt",
	OpSpawn: "spawn", OpJoin: "join", OpHalt: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the opcode is a conditional branch or jump.
func (o Op) IsBranch() bool { return o >= OpJmp && o <= OpBGT }

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return o >= OpBEQ && o <= OpBGT }

// HasDst reports whether the opcode writes a destination register.
func (o Op) HasDst() bool {
	switch o {
	case OpConst, OpMov, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr,
		OpXor, OpShl, OpShr, OpMin, OpMax, OpAddI, OpMulI, OpAndI, OpXorI,
		OpShlI, OpShrI, OpLoad:
		return true
	case OpAtomicAdd:
		return true // Dst receives the post-add value
	}
	return false
}

// NumSrcs returns how many source registers the opcode reads.
func (o Op) NumSrcs() int {
	switch o {
	case OpNop, OpConst, OpSerialize, OpJmp, OpSpawn, OpJoin, OpHalt:
		return 0
	case OpMov, OpAddI, OpMulI, OpAndI, OpXorI, OpShlI, OpShrI, OpLoad,
		OpPrefetch:
		return 1
	default:
		return 2
	}
}

// Flag carries per-instruction annotations used by the profiling and
// transformation passes.
type Flag uint8

const (
	// FlagTargetLoad marks a load annotated (by the programmer, paper
	// §4.4) as a candidate target for Ghost Threading.
	FlagTargetLoad Flag = 1 << iota
	// FlagBackedge marks a loop backedge branch; the profiler counts its
	// executions as loop iterations.
	FlagBackedge
	// FlagSync marks instructions that belong to a synchronization segment
	// inserted by internal/core (excluded from p-slice re-extraction).
	FlagSync
	// FlagSyncSkip marks the subset of a synchronization segment that
	// implements the catch-up skip: the instructions that jump the ghost's
	// induction state forward when it has fallen behind the main thread.
	// Observability uses it to trace sync-segment skip events; skip
	// instructions also carry FlagSync.
	FlagSyncSkip
	// FlagGovParam marks a synchronization-segment load that reads a
	// governor-owned tuning word (dynamic TooFar/Close; see
	// core.SyncParams) instead of the main thread's iteration counter.
	// The ghost-lead observability tap keys on sync-segment counter
	// loads, so parameter loads carry this flag to opt out; they also
	// carry FlagSync like the rest of the segment.
	FlagGovParam
)

// Instr is one IR instruction.
type Instr struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	Target int32 // branch target (absolute instruction index)
	Flags  Flag
	Loop   int32 // innermost enclosing loop ID, or -1
}

// HasFlag reports whether the instruction carries the given annotation.
func (in *Instr) HasFlag(f Flag) bool { return in.Flags&f != 0 }

// Loop describes a loop annotated by the builder. Loops form a forest via
// Parent. Body spans [Head, End) instruction indices; Backedge is the
// index of the branch whose executions count iterations.
type Loop struct {
	ID       int
	Name     string
	Func     string // enclosing "function" (top-level region) name
	Parent   int    // parent loop ID or -1
	Head     int    // first instruction index of the loop body
	End      int    // one past the last instruction index
	Backedge int    // instruction index of the backedge branch (-1 until sealed)
}

// Program is a complete IR routine for one hardware thread.
//
// Immutability contract: a Program is frozen the moment Builder.Build
// returns it. No pass mutates Code, Loops, or any Instr in place —
// transformation passes (the slicer, the sync inserter, fuzz mutators)
// build a new Program via a fresh Builder. Consumers rely on this:
// internal/cpu decodes each Program once at Core.Load into a cached
// image with no invalidation path, and the analysis packages
// share Programs across goroutines without synchronization. Breaking
// the contract silently desynchronizes the decoded image from the IR.
type Program struct {
	Name  string
	Code  []Instr
	Loops []Loop
}

// FlagError reports a misuse of an instruction-flag annotation found by
// Validate. It is a typed error so passes that synthesize flags (the
// sync inserter, the slicer, fuzzers) can match the class of misuse
// with errors.As instead of parsing the message.
type FlagError struct {
	Program string
	PC      int  // offending instruction index, or -1 for loop-level misuse
	Flag    Flag // the misused flag
	Reason  string
}

func (e *FlagError) Error() string {
	return fmt.Sprintf("isa: %q pc=%d: flag [%s]: %s", e.Program, e.PC, flagString(e.Flag), e.Reason)
}

// InnermostLoop returns the innermost loop containing instruction index
// pc, or nil.
func (p *Program) InnermostLoop(pc int) *Loop {
	if pc < 0 || pc >= len(p.Code) {
		return nil
	}
	id := p.Code[pc].Loop
	if id < 0 || int(id) >= len(p.Loops) {
		return nil
	}
	return &p.Loops[id]
}

// Validate checks structural invariants: branch targets in range, register
// indices in range, loops well nested, and a reachable Halt. It returns a
// descriptive error for the first violation found.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	haltSeen := false
	for i := range p.Code {
		in := &p.Code[i]
		if in.Op >= opCount {
			return fmt.Errorf("isa: %q pc=%d: invalid opcode %d", p.Name, i, in.Op)
		}
		if in.Op == OpHalt {
			haltSeen = true
		}
		if in.Op.IsBranch() {
			if in.Target < 0 || int(in.Target) >= len(p.Code) {
				return fmt.Errorf("isa: %q pc=%d: branch target %d out of range [0,%d)",
					p.Name, i, in.Target, len(p.Code))
			}
		}
		if in.Op.HasDst() && in.Dst >= NumRegs {
			return fmt.Errorf("isa: %q pc=%d: dst register %d out of range", p.Name, i, in.Dst)
		}
		if n := in.Op.NumSrcs(); n >= 1 && in.Src1 >= NumRegs {
			return fmt.Errorf("isa: %q pc=%d: src1 register %d out of range", p.Name, i, in.Src1)
		} else if n >= 2 && in.Src2 >= NumRegs {
			return fmt.Errorf("isa: %q pc=%d: src2 register %d out of range", p.Name, i, in.Src2)
		}
		if in.Op == OpPrefetch && (in.Dst != 0 || in.Src2 != 0) {
			return fmt.Errorf("isa: %q pc=%d: prefetch carries operands beyond its address (dst r%d, src2 r%d); it produces no value",
				p.Name, i, in.Dst, in.Src2)
		}
		if in.Op == OpSerialize && (in.Dst != 0 || in.Src1 != 0 || in.Src2 != 0 || in.Imm != 0 || in.Target != 0) {
			return fmt.Errorf("isa: %q pc=%d: serialize takes no operands", p.Name, i)
		}
		if in.HasFlag(FlagSyncSkip) {
			if err := p.checkSyncSkip(i, in); err != nil {
				return err
			}
		}
		if lid := in.Loop; lid >= 0 {
			if int(lid) >= len(p.Loops) {
				return fmt.Errorf("isa: %q pc=%d: loop id %d out of range", p.Name, i, lid)
			}
			l := &p.Loops[lid]
			if i < l.Head || i >= l.End {
				return fmt.Errorf("isa: %q pc=%d: tagged with loop %d but outside its body [%d,%d)",
					p.Name, i, lid, l.Head, l.End)
			}
		}
	}
	if !haltSeen {
		return fmt.Errorf("isa: program %q has no halt", p.Name)
	}
	if err := p.checkSyncSkipRuns(); err != nil {
		return err
	}
	seenLoopIDs := make(map[int]int, len(p.Loops))
	for i := range p.Loops {
		l := &p.Loops[i]
		if prev, dup := seenLoopIDs[l.ID]; dup {
			return fmt.Errorf("isa: %q loops %d and %d share annotation ID %d", p.Name, prev, i, l.ID)
		}
		seenLoopIDs[l.ID] = i
		if l.Head < 0 || l.End > len(p.Code) || l.Head > l.End {
			return fmt.Errorf("isa: %q loop %d (%s): bad body [%d,%d)", p.Name, l.ID, l.Name, l.Head, l.End)
		}
		if l.Parent >= 0 {
			pl := &p.Loops[l.Parent]
			if l.Head < pl.Head || l.End > pl.End {
				return fmt.Errorf("isa: %q loop %d (%s) not nested in parent %d", p.Name, l.ID, l.Name, l.Parent)
			}
		}
		if l.Backedge >= 0 {
			if l.Backedge >= len(p.Code) || !p.Code[l.Backedge].Op.IsBranch() {
				return fmt.Errorf("isa: %q loop %d (%s): backedge %d is not a branch", p.Name, l.ID, l.Name, l.Backedge)
			}
		}
	}
	return nil
}

// checkSyncSkip enforces the per-instruction FlagSyncSkip rules. The
// catch-up skip is defined as part of a synchronization segment
// (paper §4.3.1): it fast-forwards the ghost's private induction state
// inside a loop, so a skip instruction must also carry FlagSync, must
// sit inside an annotated loop, and must not mutate architectural state
// beyond registers — the translation validator erases skip self-updates
// when proving address equivalence modulo sync, and that erasure is
// only sound for pure register arithmetic.
func (p *Program) checkSyncSkip(pc int, in *Instr) error {
	if !in.HasFlag(FlagSync) {
		return &FlagError{Program: p.Name, PC: pc, Flag: FlagSyncSkip,
			Reason: "skip instruction outside a synchronization segment (missing FlagSync)"}
	}
	if in.Loop < 0 {
		return &FlagError{Program: p.Name, PC: pc, Flag: FlagSyncSkip,
			Reason: "skip instruction outside any annotated loop; the catch-up skip advances loop induction state"}
	}
	switch in.Op {
	case OpStore, OpAtomicAdd, OpSpawn, OpJoin, OpHalt, OpSerialize:
		return &FlagError{Program: p.Name, PC: pc, Flag: FlagSyncSkip,
			Reason: fmt.Sprintf("skip on %s: the validator erases skip effects, which is unsound for state-mutating instructions", in.Op)}
	}
	return nil
}

// checkSyncSkipRuns enforces that each loop carries at most one
// contiguous run of FlagSyncSkip instructions: the sync inserter emits
// the catch-up skip as a single block, and the symbolic erasure treats
// it as one atomic identity — two disjoint runs in the same loop would
// mean two competing catch-up points.
func (p *Program) checkSyncSkipRuns() error {
	type run struct{ first, last int }
	runs := map[int32]run{}
	for i := range p.Code {
		in := &p.Code[i]
		if !in.HasFlag(FlagSyncSkip) || in.Loop < 0 {
			continue
		}
		r, seen := runs[in.Loop]
		if !seen {
			runs[in.Loop] = run{first: i, last: i}
			continue
		}
		if i != r.last+1 {
			return &FlagError{Program: p.Name, PC: i, Flag: FlagSyncSkip,
				Reason: fmt.Sprintf("second skip run in loop %d (first run ends at pc=%d); each loop gets one contiguous catch-up skip",
					in.Loop, r.last)}
		}
		r.last = i
		runs[in.Loop] = r
	}
	return nil
}

// flagNames names each instruction flag. Dump writes a flag as a
// "!name" token and Parse reads it back; FlagError prints the name.
var flagNames = [...]struct {
	f    Flag
	name string
}{
	{FlagTargetLoad, "target"},
	{FlagBackedge, "backedge"},
	{FlagSync, "sync"},
	{FlagSyncSkip, "skip"},
	{FlagGovParam, "govparam"},
}

// flagByName returns the flag named name, or 0 when there is none.
func flagByName(name string) Flag {
	for _, fl := range flagNames {
		if fl.name == name {
			return fl.f
		}
	}
	return 0
}

func flagString(f Flag) string {
	var parts []string
	for _, fl := range flagNames {
		if f&fl.f != 0 {
			parts = append(parts, fl.name)
		}
	}
	return strings.Join(parts, ",")
}
