package slice

import (
	"testing"

	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/sim"
)

// buildIndirect constructs a small camel-like indirect-sum kernel over a
// fresh memory and returns the program, the memory, the target load PC,
// its loop ID, and the expected result address/value.
func buildIndirect(t *testing.T) (*isa.Program, *mem.Memory, core.Target, core.Counters, int64, int64) {
	t.Helper()
	const n, m = 2048, 8192
	mm := mem.New(m + n + 256)
	h := mem.NewHeap(mm)
	rng := graph.NewRNG(99)
	values := make([]int64, m)
	for i := range values {
		values[i] = int64(rng.Next() >> 40)
	}
	index := make([]int64, n)
	for i := range index {
		index[i] = rng.Intn(m)
	}
	valuesA := h.AllocSlice(values)
	indexA := h.AllocSlice(index)
	out := h.Alloc(1)
	ctr := core.Counters{MainAddr: h.Alloc(1), GhostAddr: h.Alloc(1)}

	var want int64
	for i := 0; i < n; i++ {
		want += values[index[i]] * 3
	}

	b := isa.NewBuilder("indirect")
	b.Func("main")
	sum := b.Imm(0)
	valuesR := b.Imm(valuesA)
	indexR := b.Imm(indexA)
	lo := b.Imm(0)
	hi := b.Imm(n)
	var loadPC int
	var loopID int
	loopID = b.CountedLoop("hot", lo, hi, func(i isa.Reg) {
		a := b.Reg()
		b.Add(a, indexR, i)
		idx := b.Reg()
		b.Load(idx, a, 0)
		va := b.Reg()
		b.Add(va, valuesR, idx)
		v := b.Reg()
		loadPC = b.Load(v, va, 0)
		b.MarkTarget()
		x := b.Reg()
		b.MulI(x, v, 3)
		b.Add(sum, sum, x)
	})
	outR := b.Imm(out)
	b.Store(outR, 0, sum)
	b.Halt()
	p := b.MustBuild()

	return p, mm, core.Target{LoadPC: loadPC, LoopID: loopID}, ctr, out, want
}

func extractIndirect(t *testing.T) (*Result, *mem.Memory, core.Counters, int64, int64) {
	t.Helper()
	p, mm, target, ctr, out, want := buildIndirect(t)
	res, err := Extract(p, []core.Target{target}, core.DefaultSyncParams(), ctr)
	if err != nil {
		t.Fatal(err)
	}
	return res, mm, ctr, out, want
}

func TestExtractProducesValidPrograms(t *testing.T) {
	res, _, _, _, _ := extractIndirect(t)
	if err := res.Main.Validate(); err != nil {
		t.Errorf("main: %v", err)
	}
	if err := res.Ghost.Validate(); err != nil {
		t.Errorf("ghost: %v", err)
	}
	if res.Kept == 0 {
		t.Error("ghost kept no instructions")
	}
}

func TestExtractedGhostIsReadOnly(t *testing.T) {
	res, _, _, _, _ := extractIndirect(t)
	if !isa.ReadOnly(res.Ghost) {
		t.Fatalf("extracted ghost contains stores:\n%s", isa.Dump(res.Ghost))
	}
}

func TestExtractedGhostPrefetchesTarget(t *testing.T) {
	res, _, _, _, _ := extractIndirect(t)
	var prefetches, serializes int
	for _, in := range res.Ghost.Code {
		switch in.Op {
		case isa.OpPrefetch:
			prefetches++
		case isa.OpSerialize:
			serializes++
		}
	}
	if prefetches != 1 {
		t.Errorf("ghost has %d prefetches, want 1 (the replaced target)", prefetches)
	}
	if serializes == 0 {
		t.Error("ghost has no serialize instruction (missing sync segment)")
	}
}

func TestExtractedGhostDropsValueComputation(t *testing.T) {
	// The MulI/Add that consume the loaded value feed neither a branch
	// nor an address: the slice must drop them.
	res, _, _, _, _ := extractIndirect(t)
	for _, in := range res.Ghost.Code {
		if in.Op == isa.OpMulI && in.Imm == 3 {
			t.Error("value computation (MulI x3) survived slicing")
		}
	}
	if res.Dropped == 0 {
		t.Error("slice dropped nothing")
	}
}

func TestRewrittenMainStillComputesResult(t *testing.T) {
	res, mm, ctr, out, want := extractIndirect(t)
	if _, err := isa.Interp(res.Main, mm, []*isa.Program{res.Ghost}, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if got := mm.LoadWord(out); got != want {
		t.Errorf("rewritten main computed %d, want %d", got, want)
	}
	// The counter word must have been driven by the loop.
	if got := mm.LoadWord(ctr.MainAddr); got != 2048 {
		t.Errorf("main counter = %d, want 2048 iterations", got)
	}
}

func TestRewrittenMainRunsOnTimedCore(t *testing.T) {
	res, mm, _, out, want := extractIndirect(t)
	r, err := sim.RunProgram(sim.DefaultConfig(), mm, res.Main, []*isa.Program{res.Ghost})
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.LoadWord(out); got != want {
		t.Errorf("timed run computed %d, want %d", got, want)
	}
	if r.Spawns != 1 {
		t.Errorf("spawns = %d, want 1", r.Spawns)
	}
	if r.Prefetches == 0 {
		t.Error("compiler ghost issued no prefetches")
	}
}

func TestCompilerGhostActuallyPrefetchesUsefully(t *testing.T) {
	// The compiler ghost should beat the baseline on this simple flat
	// loop (it degrades only on complex control flow).
	p, mm, _, _, out, want := buildIndirect(t)
	base, err := sim.RunProgram(sim.DefaultConfig(), mm, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.LoadWord(out); got != want {
		t.Fatalf("baseline run wrong: %d != %d", got, want)
	}

	res2, mm2, _, out2, want2 := extractIndirect(t)
	ghostRun, err := sim.RunProgram(sim.DefaultConfig(), mm2, res2.Main, []*isa.Program{res2.Ghost})
	if err != nil {
		t.Fatal(err)
	}
	if got := mm2.LoadWord(out2); got != want2 {
		t.Fatalf("ghost run wrong: %d != %d", got, want2)
	}
	if ghostRun.Cycles >= base.Cycles {
		t.Errorf("compiler ghost did not speed up the flat loop: baseline %d, ghost %d",
			base.Cycles, ghostRun.Cycles)
	}
}

func TestExtractErrorsWithoutTargets(t *testing.T) {
	p, _, _, _, _, _ := buildIndirect(t)
	if _, err := Extract(p, nil, core.DefaultSyncParams(), core.Counters{}); err == nil {
		t.Error("no error for empty target list")
	}
}

// buildNested constructs a two-level loop nest (rows x cols) with the
// target in the inner loop, mirroring the camel-ghost shape.
func buildNested(t *testing.T) (*isa.Program, *mem.Memory, core.Target, core.Counters, int64, int64) {
	t.Helper()
	const rows, cols, rowSz = 64, 32, 128
	mm := mem.New(rows*rowSz + cols + 256)
	h := mem.NewHeap(mm)
	rng := graph.NewRNG(17)
	values := make([]int64, rows*rowSz)
	for i := range values {
		values[i] = int64(rng.Next() >> 45)
	}
	index := make([]int64, cols)
	for i := range index {
		index[i] = rng.Intn(rowSz)
	}
	valuesA := h.AllocSlice(values)
	indexA := h.AllocSlice(index)
	out := h.Alloc(1)
	ctr := core.Counters{MainAddr: h.Alloc(1), GhostAddr: h.Alloc(1)}

	var want int64
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			want += values[int64(r*rowSz)+index[j]]
		}
	}

	b := isa.NewBuilder("nested")
	b.Func("main")
	sum := b.Imm(0)
	valuesR := b.Imm(valuesA)
	indexR := b.Imm(indexA)
	zero := b.Imm(0)
	rowsR := b.Imm(rows)
	colsR := b.Imm(cols)
	rowBase := b.Reg()
	var loadPC, innerID int
	b.CountedLoop("outer", zero, rowsR, func(r isa.Reg) {
		b.MulI(rowBase, r, rowSz)
		b.Add(rowBase, rowBase, valuesR)
		innerID = b.CountedLoop("inner", zero, colsR, func(j isa.Reg) {
			a := b.Reg()
			b.Add(a, indexR, j)
			idx := b.Reg()
			b.Load(idx, a, 0)
			va := b.Reg()
			b.Add(va, rowBase, idx)
			v := b.Reg()
			loadPC = b.Load(v, va, 0)
			b.MarkTarget()
			b.Add(sum, sum, v)
		})
	})
	outR := b.Imm(out)
	b.Store(outR, 0, sum)
	b.Halt()
	return b.MustBuild(), mm, core.Target{LoadPC: loadPC, LoopID: innerID}, ctr, out, want
}

func TestExtractNestedRegionIsOutermostLoop(t *testing.T) {
	p, _, target, ctr, _, _ := buildNested(t)
	res, err := Extract(p, []core.Target{target}, core.DefaultSyncParams(), ctr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Loops[res.RegionLoop].Name != "outer" {
		t.Errorf("region = %s, want the outermost loop", p.Loops[res.RegionLoop].Name)
	}
	if p.Loops[res.TargetLoop].Name != "inner" {
		t.Errorf("target loop = %s, want inner", p.Loops[res.TargetLoop].Name)
	}
	// One spawn/join pair wraps the whole nest.
	spawns, joins := 0, 0
	for _, in := range res.Main.Code {
		switch in.Op {
		case isa.OpSpawn:
			spawns++
		case isa.OpJoin:
			joins++
		}
	}
	if spawns != 1 || joins != 1 {
		t.Errorf("spawns/joins = %d/%d, want 1/1", spawns, joins)
	}
}

func TestExtractNestedMainStillCorrect(t *testing.T) {
	p, mm, target, ctr, out, want := buildNested(t)
	res, err := Extract(p, []core.Target{target}, core.DefaultSyncParams(), ctr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunProgram(sim.DefaultConfig(), mm, res.Main, []*isa.Program{res.Ghost}); err != nil {
		t.Fatal(err)
	}
	if got := mm.LoadWord(out); got != want {
		t.Errorf("nested extraction result %d, want %d", got, want)
	}
}

func TestExtractGhostKeepsNestedControlFlow(t *testing.T) {
	// The extracted ghost must retain both loops of the nest (the
	// control-flow duplication of §4.4).
	p, _, target, ctr, _, _ := buildNested(t)
	res, err := Extract(p, []core.Target{target}, core.DefaultSyncParams(), ctr)
	if err != nil {
		t.Fatal(err)
	}
	branches := 0
	for _, in := range res.Ghost.Code {
		if in.Op.IsBranch() {
			branches++
		}
	}
	if branches < 4 {
		t.Errorf("ghost has only %d branches; nested control flow lost", branches)
	}
}
