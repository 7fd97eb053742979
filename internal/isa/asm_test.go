package isa

import (
	"strings"
	"testing"
)

func TestDumpParseRoundTripSimple(t *testing.T) {
	p := buildSumLoop(t, 50)
	text := Dump(p)
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	assertProgramsEqual(t, p, q)
}

func TestDumpParseRoundTripAllOps(t *testing.T) {
	// A program exercising every opcode and flag.
	b := NewBuilder("allops")
	b.Func("f")
	r0 := b.Imm(7)
	r1 := b.Imm(-3)
	d := b.Reg()
	b.Mov(d, r0)
	b.Add(d, d, r1)
	b.Sub(d, d, r1)
	b.Mul(d, d, r0)
	b.Div(d, d, r1)
	b.Rem(d, d, r0)
	b.And(d, d, r1)
	b.Or(d, d, r1)
	b.Xor(d, d, r0)
	b.Shl(d, d, r0)
	b.Shr(d, d, r0)
	b.Min(d, d, r1)
	b.Max(d, d, r0)
	b.AddI(d, d, -9)
	b.MulI(d, d, 3)
	b.AndI(d, d, 255)
	b.XorI(d, d, 8)
	b.ShlI(d, d, 2)
	b.ShrI(d, d, 1)
	a := b.Imm(64)
	b.Load(d, a, -2)
	b.MarkTarget()
	b.Store(a, 5, d)
	b.Prefetch(a, 3)
	b.AtomicAdd(d, a, 0, r0)
	b.Serialize()
	id := b.LoopBegin("l")
	top := b.HereLabel()
	skip := b.NewLabel()
	b.BEQ(d, r0, skip)
	b.BNE(d, r0, skip)
	b.BLT(d, r0, skip)
	b.BGE(d, r0, skip)
	b.BLE(d, r0, skip)
	be := b.BGT(r1, d, top)
	b.SetBackedge(id, be)
	b.LoopEnd(id)
	b.Bind(skip)
	b.Spawn(0)
	b.Join()
	b.JoinWait()
	b.Nop()
	b.Halt()
	p := b.MustBuild()

	q, err := Parse(Dump(p))
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, Dump(p))
	}
	assertProgramsEqual(t, p, q)
}

func TestRoundTripWorkloadScale(t *testing.T) {
	// Nested loops with flags survive the round trip.
	b := NewBuilder("nest")
	b.Func("outer")
	zero := b.Imm(0)
	n := b.Imm(10)
	acc := b.Imm(0)
	b.CountedLoop("o", zero, n, func(i Reg) {
		b.CountedLoop("i", zero, n, func(j Reg) {
			a := b.Reg()
			b.Add(a, i, j)
			v := b.Reg()
			b.Load(v, a, 100)
			b.MarkTarget()
			b.Add(acc, acc, v)
		})
	})
	b.Halt()
	p := b.MustBuild()
	q, err := Parse(Dump(p))
	if err != nil {
		t.Fatal(err)
	}
	assertProgramsEqual(t, p, q)
}

func assertProgramsEqual(t *testing.T, p, q *Program) {
	t.Helper()
	if p.Name != q.Name {
		t.Errorf("name %q != %q", p.Name, q.Name)
	}
	if len(p.Code) != len(q.Code) {
		t.Fatalf("code length %d != %d", len(p.Code), len(q.Code))
	}
	for i := range p.Code {
		if p.Code[i] != q.Code[i] {
			t.Errorf("instr %d: %+v != %+v", i, p.Code[i], q.Code[i])
		}
	}
	if len(p.Loops) != len(q.Loops) {
		t.Fatalf("loop count %d != %d", len(p.Loops), len(q.Loops))
	}
	for i := range p.Loops {
		if p.Loops[i] != q.Loops[i] {
			t.Errorf("loop %d: %+v != %+v", i, p.Loops[i], q.Loops[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		".program x\n0: bogus r1, r2\n1: halt",                                 // unknown mnemonic
		".program x\n0: const r999, 1\n1: halt",                                // bad register
		".program x\n0: load r1, r2\n1: halt",                                  // missing memory operand
		".program x\n5: halt",                                                  // pc out of order
		".program x\n0: jmp 99\n1: halt",                                       // invalid target (Validate)
		".program x\n0: const r1\n1: halt",                                     // operand count
		".loop id=0 name=l func=f parent=zz head=0 end=1 backedge=-1\n0: halt", // bad loop field
		".program x\n0: beq r1, r2, 1 !hard\n1: halt",                          // unknown flag
	}
	for i, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d: bad input accepted:\n%s", i, c)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	text := `
.program commented

; a comment
0: const r0, 42
1: halt
`
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 2 || p.Code[0].Imm != 42 {
		t.Errorf("unexpected parse result: %+v", p.Code)
	}
}

func TestDumpContainsFlagsAndLoops(t *testing.T) {
	p := buildSumLoop(t, 5)
	d := Dump(p)
	for _, want := range []string{".program sum", ".loop id=0 name=sum_loop", "!backedge", "@0"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestParseAll(t *testing.T) {
	a := buildSumLoop(t, 5)
	b := buildSumLoop(t, 7)
	b.Name = "sum2"
	text := Dump(a) + "\n" + Dump(b)
	progs, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("got %d programs, want 2", len(progs))
	}
	if progs[0].Name != "sum" || progs[1].Name != "sum2" {
		t.Errorf("names = %q, %q", progs[0].Name, progs[1].Name)
	}
	if _, err := ParseAll("   \n  "); err == nil {
		t.Error("empty input accepted")
	}
}
