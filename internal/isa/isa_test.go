package isa

import "testing"

// fakeMem is a map-backed DataMemory for interpreter tests.
type fakeMem map[int64]int64

func (m fakeMem) LoadWord(a int64) int64     { return m[a] }
func (m fakeMem) StoreWord(a int64, v int64) { m[a] = v }

func buildSumLoop(t *testing.T, n int64) *Program {
	t.Helper()
	b := NewBuilder("sum")
	b.Func("main")
	acc := b.Imm(0)
	start := b.Imm(0)
	limit := b.Imm(n)
	b.CountedLoop("sum_loop", start, limit, func(i Reg) {
		acc2 := b.Reg()
		b.Add(acc2, acc, i)
		b.Mov(acc, acc2)
	})
	out := b.Imm(1000)
	b.Store(out, 0, acc)
	b.Halt()
	return b.MustBuild()
}

func TestBuilderCountedLoopSum(t *testing.T) {
	p := buildSumLoop(t, 100)
	m := fakeMem{}
	res, err := Interp(p, m, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("program did not halt")
	}
	if got, want := m[1000], int64(100*99/2); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestLoopAnnotations(t *testing.T) {
	p := buildSumLoop(t, 10)
	if len(p.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(p.Loops))
	}
	l := p.Loops[0]
	if l.Name != "sum_loop" || l.Func != "main" {
		t.Errorf("loop name/func = %q/%q", l.Name, l.Func)
	}
	if l.Backedge < 0 || !p.Code[l.Backedge].Op.IsBranch() {
		t.Errorf("backedge %d is not a branch", l.Backedge)
	}
	if !p.Code[l.Backedge].HasFlag(FlagBackedge) {
		t.Error("backedge not flagged")
	}
	// Every instruction in [Head, End) must be tagged with the loop.
	for pc := l.Head; pc < l.End; pc++ {
		if p.Code[pc].Loop != int32(l.ID) {
			t.Errorf("pc %d in body not tagged with loop %d (got %d)", pc, l.ID, p.Code[pc].Loop)
		}
	}
}

func TestNestedLoops(t *testing.T) {
	b := NewBuilder("nested")
	b.Func("f")
	outerN := b.Imm(3)
	innerN := b.Imm(4)
	zero := b.Imm(0)
	count := b.Imm(0)
	one := b.Imm(1)
	b.CountedLoop("outer", zero, outerN, func(i Reg) {
		b.CountedLoop("inner", zero, innerN, func(j Reg) {
			b.Add(count, count, one)
		})
	})
	addr := b.Imm(500)
	b.Store(addr, 0, count)
	b.Halt()
	p := b.MustBuild()

	if len(p.Loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(p.Loops))
	}
	inner := p.Loops[1]
	if inner.Parent != 0 {
		t.Errorf("inner.Parent = %d, want 0", inner.Parent)
	}
	m := fakeMem{}
	if _, err := Interp(p, m, nil, 10_000); err != nil {
		t.Fatal(err)
	}
	if m[500] != 12 {
		t.Errorf("count = %d, want 12", m[500])
	}
}

func TestInterpOps(t *testing.T) {
	// Exercise each ALU op against the expected Go semantics.
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, -1},
		{OpMul, -3, 4, -12},
		{OpDiv, 12, 4, 3},
		{OpDiv, 12, 0, 0},
		{OpRem, 13, 4, 1},
		{OpRem, 13, 0, 0},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 3, 2, 12},
		{OpShr, -1, 56, 255},
		{OpMin, 3, -4, -4},
		{OpMax, 3, -4, 3},
	}
	for _, tc := range cases {
		b := NewBuilder("op")
		x := b.Imm(tc.a)
		y := b.Imm(tc.b)
		d := b.Reg()
		b.emit(Instr{Op: tc.op, Dst: d, Src1: x, Src2: y})
		addr := b.Imm(10)
		b.Store(addr, 0, d)
		b.Halt()
		p := b.MustBuild()
		m := fakeMem{}
		if _, err := Interp(p, m, nil, 100); err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if m[10] != tc.want {
			t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, m[10], tc.want)
		}
	}
}

func TestImmediateOps(t *testing.T) {
	cases := []struct {
		op   Op
		a    int64
		imm  int64
		want int64
	}{
		{OpAddI, 5, -2, 3},
		{OpMulI, 5, 3, 15},
		{OpAndI, 0b111, 0b101, 0b101},
		{OpXorI, 0b111, 0b101, 0b010},
		{OpShlI, 3, 4, 48},
		{OpShrI, 48, 4, 3},
	}
	for _, tc := range cases {
		b := NewBuilder("opi")
		x := b.Imm(tc.a)
		d := b.Reg()
		b.emit(Instr{Op: tc.op, Dst: d, Src1: x, Imm: tc.imm})
		addr := b.Imm(10)
		b.Store(addr, 0, d)
		b.Halt()
		p := b.MustBuild()
		m := fakeMem{}
		if _, err := Interp(p, m, nil, 100); err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if m[10] != tc.want {
			t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.imm, m[10], tc.want)
		}
	}
}

func TestBranches(t *testing.T) {
	// For each branch op, check both taken and not-taken directions.
	cases := []struct {
		op    Op
		a, b  int64
		taken bool
	}{
		{OpBEQ, 1, 1, true}, {OpBEQ, 1, 2, false},
		{OpBNE, 1, 2, true}, {OpBNE, 2, 2, false},
		{OpBLT, 1, 2, true}, {OpBLT, 2, 1, false}, {OpBLT, 1, 1, false},
		{OpBGE, 2, 1, true}, {OpBGE, 1, 1, true}, {OpBGE, 0, 1, false},
		{OpBLE, 1, 1, true}, {OpBLE, 2, 1, false},
		{OpBGT, 2, 1, true}, {OpBGT, 1, 1, false},
	}
	for _, tc := range cases {
		b := NewBuilder("br")
		x := b.Imm(tc.a)
		y := b.Imm(tc.b)
		out := b.Imm(10)
		l := b.NewLabel()
		b.branch(tc.op, x, y, l)
		nt := b.Imm(100) // fallthrough marker
		b.Store(out, 0, nt)
		b.Halt()
		b.Bind(l)
		tk := b.Imm(200) // taken marker
		b.Store(out, 0, tk)
		b.Halt()
		p := b.MustBuild()
		m := fakeMem{}
		if _, err := Interp(p, m, nil, 100); err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		want := int64(100)
		if tc.taken {
			want = 200
		}
		if m[10] != want {
			t.Errorf("%s(%d,%d) landed at %d, want %d", tc.op, tc.a, tc.b, m[10], want)
		}
	}
}

func TestAtomicAddAndSpawn(t *testing.T) {
	hb := NewBuilder("helper")
	base := hb.Imm(50)
	hb.Prefetch(base, 0)
	hb.Serialize()
	hb.Halt()
	helper := hb.MustBuild()

	b := NewBuilder("main")
	cnt := b.Imm(50)
	one := b.Imm(1)
	d := b.Reg()
	b.Spawn(0)
	b.AtomicAdd(d, cnt, 0, one)
	b.AtomicAdd(d, cnt, 0, one)
	out := b.Imm(60)
	b.Store(out, 0, d)
	b.Join()
	b.Halt()
	p := b.MustBuild()

	m := fakeMem{}
	res, err := Interp(p, m, []*Program{helper}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m[50] != 2 || m[60] != 2 {
		t.Errorf("counter = %d, dst = %d, want 2, 2", m[50], m[60])
	}
	// The helper is read-only (a ghost thread), so the interpreter skips
	// it: the spawn is counted but no helper instructions execute.
	if res.Spawns != 1 || res.Serializes != 0 || res.Prefetches != 0 {
		t.Errorf("spawns/serializes/prefetches = %d/%d/%d, want 1/0/0 (read-only helper skipped)",
			res.Spawns, res.Serializes, res.Prefetches)
	}
	if !ReadOnly(helper) {
		t.Error("prefetch+serialize helper should be read-only")
	}
	if ReadOnly(p) {
		t.Error("main program stores; must not be read-only")
	}
}

func TestWorkerHelperStillRunsInInterp(t *testing.T) {
	// A helper with stores (an SMT-parallel worker) must execute.
	hb := NewBuilder("worker")
	a := hb.Imm(70)
	v := hb.Imm(123)
	hb.Store(a, 0, v)
	hb.Halt()

	b := NewBuilder("main")
	b.Spawn(0)
	b.JoinWait()
	b.Halt()
	m := fakeMem{}
	if _, err := Interp(b.MustBuild(), m, []*Program{hb.MustBuild()}, 1000); err != nil {
		t.Fatal(err)
	}
	if m[70] != 123 {
		t.Errorf("worker result missing: mem[70] = %d", m[70])
	}
}

func TestSpawnCopiesRegisters(t *testing.T) {
	// The helper inherits the spawner's registers: it stores a register
	// it never initialised itself.
	hb := NewBuilder("inherit")
	// Register indices must line up with the main program's: r0 holds 99
	// there. The helper stores r0 to address 80 via its own address reg.
	r0 := hb.Reg() // same index as main's first register
	addr := hb.Reg()
	hb.Const(addr, 80)
	hb.Store(addr, 0, r0)
	hb.Halt()

	b := NewBuilder("main")
	r := b.Reg()
	b.Const(r, 99)
	_ = b.Reg() // keep allocation parallel with the helper's
	b.Spawn(0)
	b.JoinWait()
	b.Halt()

	m := fakeMem{}
	if _, err := Interp(b.MustBuild(), m, []*Program{hb.MustBuild()}, 1000); err != nil {
		t.Fatal(err)
	}
	if m[80] != 99 {
		t.Errorf("helper saw r0 = %d, want 99 (spawn register copy)", m[80])
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	// Branch out of range.
	p := &Program{Name: "bad", Code: []Instr{
		{Op: OpJmp, Target: 99},
		{Op: OpHalt},
	}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range branch not caught")
	}
	// Missing halt.
	p2 := &Program{Name: "bad2", Code: []Instr{{Op: OpNop}}}
	if err := p2.Validate(); err == nil {
		t.Error("missing halt not caught")
	}
	// Empty program.
	p3 := &Program{Name: "bad3"}
	if err := p3.Validate(); err == nil {
		t.Error("empty program not caught")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("unbound")
	l := b.NewLabel()
	b.Jmp(l)
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("unbound label not caught")
	}

	b2 := NewBuilder("openloop")
	b2.LoopBegin("l")
	b2.Halt()
	if _, err := b2.Build(); err == nil {
		t.Error("unclosed loop not caught")
	}
}

func TestInterpInfiniteLoopGuard(t *testing.T) {
	b := NewBuilder("inf")
	l := b.HereLabel()
	b.Jmp(l)
	b.Halt()
	p := b.MustBuild()
	if _, err := Interp(p, fakeMem{}, nil, 1000); err == nil {
		t.Error("infinite loop not caught by step guard")
	}
}
