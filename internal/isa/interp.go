package isa

import "fmt"

// DataMemory is the functional view of memory the interpreter (and the
// timing model's functional front end) operates on. Addresses are word
// indices.
type DataMemory interface {
	LoadWord(addr int64) int64
	StoreWord(addr int64, v int64)
}

// InterpResult summarises a functional interpretation run.
type InterpResult struct {
	Steps      int64 // dynamic instructions executed
	Spawns     int   // helper activations encountered
	Serializes int64 // serialize instructions executed
	Prefetches int64 // prefetch instructions executed
	Halted     bool
}

// ReadOnly reports whether a program never modifies memory (ghost
// threads must be read-only; the trace store of a Trace-enabled sync
// segment is the deliberate exception and disqualifies a program here).
func ReadOnly(p *Program) bool {
	for i := range p.Code {
		switch p.Code[i].Op {
		case OpStore, OpAtomicAdd:
			return false
		}
	}
	return true
}

// Sizer is optionally implemented by memories with a bounded address
// space; the interpreter then reports out-of-range accesses as segfaults
// instead of relying on the memory to panic.
type Sizer interface {
	Size() int64
}

// ALU evaluates a register-arithmetic opcode with the machine's exact
// semantics: a and b are the Src1 and Src2 values, imm the immediate.
// OpConst yields imm and OpMov yields a. ok is false for every opcode
// that is not register arithmetic (memory, control flow, threads). The
// interpreter and the static analyses' constant folding both evaluate
// through it; the timing core keeps its own switch, which
// TestCoreMatchesInterpreterProperty checks against the interpreter.
func ALU(op Op, a, b, imm int64) (v int64, ok bool) {
	switch op {
	case OpConst:
		return imm, true
	case OpMov:
		return a, true
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case OpRem:
		if b == 0 {
			return 0, true
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return a << (uint64(b) & 63), true
	case OpShr:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	case OpMin:
		return min(a, b), true
	case OpMax:
		return max(a, b), true
	case OpAddI:
		return a + imm, true
	case OpMulI:
		return a * imm, true
	case OpAndI:
		return a & imm, true
	case OpXorI:
		return a ^ imm, true
	case OpShlI:
		return a << (uint64(imm) & 63), true
	case OpShrI:
		return int64(uint64(a) >> (uint64(imm) & 63)), true
	}
	return 0, false
}

// Interp functionally executes a program against mem with no timing model.
// It is the reference semantics the cycle-level core must agree with, and
// the fast path for validating workload results in tests.
//
// Spawn runs the designated helper program to completion at the spawn
// point, passing it a copy of the current register file (the closure a
// thread-start call captures); helpers never modify application state, so
// this is sufficient for functional validation. Join is a no-op.
// maxSteps bounds runaway loops.
func Interp(p *Program, mem DataMemory, helpers []*Program, maxSteps int64) (InterpResult, error) {
	var regs [NumRegs]int64
	return interp(p, mem, helpers, maxSteps, regs)
}

func interp(p *Program, mem DataMemory, helpers []*Program, maxSteps int64, regs [NumRegs]int64) (InterpResult, error) {
	var res InterpResult
	bound := int64(-1)
	if sz, ok := mem.(Sizer); ok {
		bound = sz.Size()
	}
	inRange := func(addr int64) bool {
		return addr >= 0 && (bound < 0 || addr < bound)
	}
	pc := 0
	for res.Steps < maxSteps {
		if pc < 0 || pc >= len(p.Code) {
			return res, fmt.Errorf("isa: %q pc %d out of range", p.Name, pc)
		}
		in := &p.Code[pc]
		res.Steps++
		next := pc + 1
		switch in.Op {
		case OpNop:
		case OpLoad:
			addr := regs[in.Src1] + in.Imm
			if !inRange(addr) {
				return res, fmt.Errorf("isa: %q pc %d: segfault: load at %d", p.Name, pc, addr)
			}
			regs[in.Dst] = mem.LoadWord(addr)
		case OpStore:
			addr := regs[in.Src1] + in.Imm
			if !inRange(addr) {
				return res, fmt.Errorf("isa: %q pc %d: segfault: store at %d", p.Name, pc, addr)
			}
			mem.StoreWord(addr, regs[in.Src2])
		case OpPrefetch:
			res.Prefetches++ // prefetches to unmapped addresses are dropped
		case OpAtomicAdd:
			addr := regs[in.Src1] + in.Imm
			if !inRange(addr) {
				return res, fmt.Errorf("isa: %q pc %d: segfault: atomic at %d", p.Name, pc, addr)
			}
			v := mem.LoadWord(addr) + regs[in.Src2]
			mem.StoreWord(addr, v)
			regs[in.Dst] = v
		case OpSerialize:
			res.Serializes++
		case OpJmp:
			next = int(in.Target)
		case OpBEQ:
			if regs[in.Src1] == regs[in.Src2] {
				next = int(in.Target)
			}
		case OpBNE:
			if regs[in.Src1] != regs[in.Src2] {
				next = int(in.Target)
			}
		case OpBLT:
			if regs[in.Src1] < regs[in.Src2] {
				next = int(in.Target)
			}
		case OpBGE:
			if regs[in.Src1] >= regs[in.Src2] {
				next = int(in.Target)
			}
		case OpBLE:
			if regs[in.Src1] <= regs[in.Src2] {
				next = int(in.Target)
			}
		case OpBGT:
			if regs[in.Src1] > regs[in.Src2] {
				next = int(in.Target)
			}
		case OpSpawn:
			res.Spawns++
			hid := int(in.Imm)
			if hid < 0 || hid >= len(helpers) || helpers[hid] == nil {
				return res, fmt.Errorf("isa: %q spawns unknown helper %d", p.Name, hid)
			}
			// Read-only helpers (ghost threads) cannot affect application
			// state, and — because on real runs the main thread kills them
			// at the join — they need not terminate on their own; skip
			// them during functional interpretation. Helpers with stores
			// (parallel workers) run to completion at the spawn point.
			if ReadOnly(helpers[hid]) {
				break
			}
			sub, err := interp(helpers[hid], mem, nil, maxSteps-res.Steps, regs)
			res.Steps += sub.Steps
			res.Serializes += sub.Serializes
			res.Prefetches += sub.Prefetches
			if err != nil {
				return res, fmt.Errorf("isa: helper %q: %w", helpers[hid].Name, err)
			}
		case OpJoin:
		case OpHalt:
			res.Halted = true
			return res, nil
		default:
			v, ok := ALU(in.Op, regs[in.Src1], regs[in.Src2], in.Imm)
			if !ok {
				return res, fmt.Errorf("isa: %q pc %d: unimplemented op %s", p.Name, pc, in.Op)
			}
			regs[in.Dst] = v
		}
		pc = next
	}
	return res, fmt.Errorf("isa: %q exceeded %d steps (infinite loop?)", p.Name, maxSteps)
}
