package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Dump serialises a program to the canonical assembly text format:
//
//	.program camel-base
//	.loop id=0 name=camel_loop func=camel parent=-1 head=5 end=20 backedge=19
//	0: const r0, 0
//	1: load r1, [r0+4] !target
//	...
//
// Flags append as !target !backedge !sync !skip !govparam tokens. Parse
// inverts it; Parse(Dump(p)) reproduces p exactly (tests rely on this
// round-trip).
func Dump(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".program %s\n", p.Name)
	for _, l := range p.Loops {
		fmt.Fprintf(&b, ".loop id=%d name=%s func=%s parent=%d head=%d end=%d backedge=%d\n",
			l.ID, l.Name, l.Func, l.Parent, l.Head, l.End, l.Backedge)
	}
	for pc := range p.Code {
		in := &p.Code[pc]
		fmt.Fprintf(&b, "%d: %s", pc, in)
		if in.Loop >= 0 {
			fmt.Fprintf(&b, " @%d", in.Loop)
		}
		for _, fl := range flagNames {
			if in.Flags&fl.f != 0 {
				b.WriteString(" !")
				b.WriteString(fl.name)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the instruction in the assembly operand format Parse
// reads (without its loop tag or flags).
func (in *Instr) String() string {
	switch {
	case in.Op == OpNop || in.Op == OpHalt || in.Op == OpSerialize:
		return in.Op.String()
	case in.Op == OpSpawn || in.Op == OpJoin:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case in.Op == OpConst:
		return fmt.Sprintf("const r%d, %d", in.Dst, in.Imm)
	case in.Op == OpMov:
		return fmt.Sprintf("mov r%d, r%d", in.Dst, in.Src1)
	case in.Op == OpLoad:
		return fmt.Sprintf("load r%d, [r%d+%d]", in.Dst, in.Src1, in.Imm)
	case in.Op == OpStore:
		return fmt.Sprintf("store [r%d+%d], r%d", in.Src1, in.Imm, in.Src2)
	case in.Op == OpPrefetch:
		return fmt.Sprintf("prefetch [r%d+%d]", in.Src1, in.Imm)
	case in.Op == OpAtomicAdd:
		return fmt.Sprintf("atomicadd r%d, [r%d+%d], r%d", in.Dst, in.Src1, in.Imm, in.Src2)
	case in.Op == OpJmp:
		return fmt.Sprintf("jmp %d", in.Target)
	case in.Op.IsCondBranch():
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Src1, in.Src2, in.Target)
	case in.Op >= OpAddI && in.Op <= OpShrI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Dst, in.Src1, in.Imm)
	default: // register-register ALU
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Dst, in.Src1, in.Src2)
	}
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, int(opCount))
	for op := OpNop; op < opCount; op++ {
		m[op.String()] = op
	}
	return m
}()

// ParseAll reads a text containing several concatenated Dump outputs and
// returns the programs in order (the gtrun -asm file format: main first,
// then helpers).
func ParseAll(text string) ([]*Program, error) {
	var progs []*Program
	for _, chunk := range strings.Split(text, ".program ") {
		if strings.TrimSpace(chunk) == "" {
			continue
		}
		p, err := Parse(".program " + chunk)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("isa: no programs in input")
	}
	return progs, nil
}

// Parse reads the Dump format back into a Program.
func Parse(text string) (*Program, error) {
	p := &Program{}
	var nextPC int
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return fmt.Errorf("isa: line %d: %s", lineno+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, ".program "):
			p.Name = strings.TrimSpace(strings.TrimPrefix(line, ".program "))
		case strings.HasPrefix(line, ".loop "):
			l, err := parseLoop(strings.TrimPrefix(line, ".loop "))
			if err != nil {
				return nil, errf("%v", err)
			}
			if l.ID != len(p.Loops) {
				return nil, errf("loop id %d out of order", l.ID)
			}
			p.Loops = append(p.Loops, l)
		default:
			pc, in, err := parseInstrLine(line)
			if err != nil {
				return nil, errf("%v", err)
			}
			if pc != nextPC {
				return nil, errf("pc %d out of order (expected %d)", pc, nextPC)
			}
			nextPC++
			p.Code = append(p.Code, in)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseLoop(s string) (Loop, error) {
	l := Loop{Backedge: -1, Parent: -1}
	for _, field := range strings.Fields(s) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return l, fmt.Errorf("bad loop field %q", field)
		}
		switch k {
		case "name":
			l.Name = v
		case "func":
			l.Func = v
		default:
			n, err := strconv.Atoi(v)
			if err != nil {
				return l, fmt.Errorf("bad loop field %q: %v", field, err)
			}
			switch k {
			case "id":
				l.ID = n
			case "parent":
				l.Parent = n
			case "head":
				l.Head = n
			case "end":
				l.End = n
			case "backedge":
				l.Backedge = n
			default:
				return l, fmt.Errorf("unknown loop field %q", k)
			}
		}
	}
	return l, nil
}

// parseInstrLine parses "PC: mnemonic operands [@loop] [!flags...]".
func parseInstrLine(line string) (int, Instr, error) {
	in := Instr{Loop: -1}
	pcStr, rest, ok := strings.Cut(line, ":")
	if !ok {
		return 0, in, fmt.Errorf("missing pc separator")
	}
	pc, err := strconv.Atoi(strings.TrimSpace(pcStr))
	if err != nil {
		return 0, in, fmt.Errorf("bad pc %q", pcStr)
	}

	// Peel trailing flag/loop tokens.
	fields := strings.Fields(rest)
	for len(fields) > 0 {
		last := fields[len(fields)-1]
		if name, ok := strings.CutPrefix(last, "!"); ok {
			f := flagByName(name)
			if f == 0 {
				return 0, in, fmt.Errorf("unknown flag %q", last)
			}
			in.Flags |= f
		} else if n, ok := strings.CutPrefix(last, "@"); ok {
			id, err := strconv.Atoi(n)
			if err != nil {
				return 0, in, fmt.Errorf("bad loop tag %q", last)
			}
			in.Loop = int32(id)
		} else {
			break
		}
		fields = fields[:len(fields)-1]
	}
	if len(fields) == 0 {
		return 0, in, fmt.Errorf("empty instruction")
	}
	op, ok := opByName[fields[0]]
	if !ok {
		return 0, in, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	in.Op = op
	operands := strings.Split(strings.Join(fields[1:], " "), ",")
	for i := range operands {
		operands[i] = strings.TrimSpace(operands[i])
	}
	if len(operands) == 1 && operands[0] == "" {
		operands = nil
	}

	reg := func(s string) (Reg, error) {
		if !strings.HasPrefix(s, "r") {
			return 0, fmt.Errorf("bad register %q", s)
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n >= NumRegs {
			return 0, fmt.Errorf("bad register %q", s)
		}
		return Reg(n), nil
	}
	memOp := func(s string) (Reg, int64, error) {
		s = strings.TrimSpace(s)
		if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
			return 0, 0, fmt.Errorf("bad memory operand %q", s)
		}
		body := s[1 : len(s)-1]
		rs, offs, ok := strings.Cut(body, "+")
		if !ok {
			return 0, 0, fmt.Errorf("bad memory operand %q", s)
		}
		r, err := reg(strings.TrimSpace(rs))
		if err != nil {
			return 0, 0, err
		}
		off, err := strconv.ParseInt(strings.TrimSpace(offs), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q", s)
		}
		return r, off, nil
	}
	imm := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

	need := func(n int) error {
		if len(operands) != n {
			return fmt.Errorf("%s needs %d operands, got %d", op, n, len(operands))
		}
		return nil
	}

	switch op {
	case OpNop, OpHalt, OpSerialize:
		err = need(0)
	case OpSpawn, OpJoin:
		if err = need(1); err == nil {
			in.Imm, err = imm(operands[0])
		}
	case OpConst:
		if err = need(2); err == nil {
			if in.Dst, err = reg(operands[0]); err == nil {
				in.Imm, err = imm(operands[1])
			}
		}
	case OpMov:
		if err = need(2); err == nil {
			if in.Dst, err = reg(operands[0]); err == nil {
				in.Src1, err = reg(operands[1])
			}
		}
	case OpLoad:
		if err = need(2); err == nil {
			if in.Dst, err = reg(operands[0]); err == nil {
				in.Src1, in.Imm, err = memOp(operands[1])
			}
		}
	case OpStore:
		if err = need(2); err == nil {
			if in.Src1, in.Imm, err = memOp(operands[0]); err == nil {
				in.Src2, err = reg(operands[1])
			}
		}
	case OpPrefetch:
		if err = need(1); err == nil {
			in.Src1, in.Imm, err = memOp(operands[0])
		}
	case OpAtomicAdd:
		if err = need(3); err == nil {
			if in.Dst, err = reg(operands[0]); err == nil {
				if in.Src1, in.Imm, err = memOp(operands[1]); err == nil {
					in.Src2, err = reg(operands[2])
				}
			}
		}
	case OpJmp:
		if err = need(1); err == nil {
			var t int64
			if t, err = imm(operands[0]); err == nil {
				in.Target = int32(t)
			}
		}
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLE, OpBGT:
		if err = need(3); err == nil {
			if in.Src1, err = reg(operands[0]); err == nil {
				if in.Src2, err = reg(operands[1]); err == nil {
					var t int64
					if t, err = imm(operands[2]); err == nil {
						in.Target = int32(t)
					}
				}
			}
		}
	case OpAddI, OpMulI, OpAndI, OpXorI, OpShlI, OpShrI:
		if err = need(3); err == nil {
			if in.Dst, err = reg(operands[0]); err == nil {
				if in.Src1, err = reg(operands[1]); err == nil {
					in.Imm, err = imm(operands[2])
				}
			}
		}
	default: // register-register ALU
		if err = need(3); err == nil {
			if in.Dst, err = reg(operands[0]); err == nil {
				if in.Src1, err = reg(operands[1]); err == nil {
					in.Src2, err = reg(operands[2])
				}
			}
		}
	}
	if err != nil {
		return 0, in, err
	}
	return pc, in, nil
}
