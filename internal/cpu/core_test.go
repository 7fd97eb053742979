package cpu

import (
	"testing"

	"ghostthread/internal/cache"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// testRig bundles a core with a private hierarchy over a fresh memory.
func testRig(cfg Config, memWords int64) (*Core, *mem.Memory) {
	m := mem.New(memWords)
	mc := mem.NewController(mem.ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	llc := cache.New("LLC", cache.DefaultLLCConfig())
	hcfg := cache.DefaultHierarchyConfig()
	hcfg.HWPrefetch = false // core tests reason about exact miss counts
	h := cache.NewHierarchy(hcfg, llc, mc)
	return New(cfg, h, m), m
}

func run(t *testing.T, c *Core, maxCycles int64) int64 {
	t.Helper()
	cycles, err := c.Run(maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

func TestFunctionalAgreementWithInterp(t *testing.T) {
	b := isa.NewBuilder("agree")
	b.Func("main")
	acc := b.Imm(0)
	zero := b.Imm(0)
	n := b.Imm(50)
	arr := b.Imm(512)
	// Initialise arr[i] = i*3, then sum with a stride.
	b.CountedLoop("init", zero, n, func(i isa.Reg) {
		v := b.Reg()
		b.MulI(v, i, 3)
		a := b.Reg()
		b.Add(a, arr, i)
		b.Store(a, 0, v)
	})
	b.CountedLoop("sum", zero, n, func(i isa.Reg) {
		a := b.Reg()
		b.Add(a, arr, i)
		v := b.Reg()
		b.Load(v, a, 0)
		b.Add(acc, acc, v)
	})
	out := b.Imm(256)
	b.Store(out, 0, acc)
	b.Halt()
	p := b.MustBuild()

	// Reference.
	ref := mem.New(4096)
	if _, err := isa.Interp(p, ref, nil, 1_000_000); err != nil {
		t.Fatal(err)
	}

	c, m := testRig(DefaultConfig(), 4096)
	c.Load(p, nil)
	run(t, c, 1_000_000)
	if got, want := m.LoadWord(256), ref.LoadWord(256); got != want {
		t.Errorf("core result %d, want %d (interp)", got, want)
	}
	if c.Committed(0) == 0 {
		t.Error("no instructions committed")
	}
}

// buildLoads emits n loads at the given word stride starting at base.
func buildLoads(n int, base, stride int64) *isa.Program {
	b := isa.NewBuilder("loads")
	a := b.Imm(base)
	d := b.Reg()
	for i := 0; i < n; i++ {
		b.Load(d, a, int64(i)*stride)
	}
	b.Halt()
	return b.MustBuild()
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// 8 independent cold loads to distinct lines should overlap: total
	// time far below 8 sequential DRAM accesses.
	c, _ := testRig(DefaultConfig(), 1<<16)
	c.Load(buildLoads(8, 1024, 8), nil)
	cycles := run(t, c, 100_000)
	dram := int64(200 + 44)
	if cycles > 2*dram {
		t.Errorf("8 independent misses took %d cycles; expected MLP to keep it under %d", cycles, 2*dram)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	// A pointer chase serialises: each load needs the previous value.
	m := mem.New(1 << 16)
	// Chain: mem[1024] -> 2048 -> 3072 -> ... distinct lines.
	n := 6
	for i := 0; i < n; i++ {
		m.StoreWord(int64(1024*(i+1)), int64(1024*(i+2)))
	}
	mc := mem.NewController(mem.ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	llc := cache.New("LLC", cache.DefaultLLCConfig())
	hcfg := cache.DefaultHierarchyConfig()
	hcfg.HWPrefetch = false
	h := cache.NewHierarchy(hcfg, llc, mc)
	c := New(DefaultConfig(), h, m)

	b := isa.NewBuilder("chase")
	ptr := b.Imm(1024)
	for i := 0; i < n; i++ {
		b.Load(ptr, ptr, 0)
	}
	b.Halt()
	c.Load(b.MustBuild(), nil)
	cycles := run(t, c, 100_000)
	if cycles < int64(n)*200 {
		t.Errorf("pointer chase of %d took %d cycles; expected at least %d (serialised misses)",
			n, cycles, n*200)
	}
}

func TestMSHRLimitBoundsMLP(t *testing.T) {
	// With 2 MSHRs, 16 independent misses take ~8 serialised rounds.
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	c2, _ := testRig(cfg, 1<<16)
	c2.Load(buildLoads(16, 1024, 8), nil)
	limited := run(t, c2, 1_000_000)

	cfg.MSHRs = 16
	c16, _ := testRig(cfg, 1<<16)
	c16.Load(buildLoads(16, 1024, 8), nil)
	wide := run(t, c16, 1_000_000)

	if limited < 3*wide {
		t.Errorf("MSHR limit had little effect: 2 MSHRs %d cycles, 16 MSHRs %d", limited, wide)
	}
}

func TestSerializeDrainsAndCostsCycles(t *testing.T) {
	cfg := DefaultConfig()
	b := isa.NewBuilder("ser")
	d := b.Imm(1)
	for i := 0; i < 4; i++ {
		b.AddI(d, d, 1)
		b.Serialize()
	}
	b.Halt()
	c, _ := testRig(cfg, 1024)
	c.Load(b.MustBuild(), nil)
	cycles := run(t, c, 100_000)
	if c.Serializes(0) != 4 {
		t.Errorf("retired %d serializes, want 4", c.Serializes(0))
	}
	if cycles < 4*cfg.SerializeLat {
		t.Errorf("4 serializes took %d cycles, want at least %d", cycles, 4*cfg.SerializeLat)
	}
}

func TestSerializeBlocksFetchUntilDrain(t *testing.T) {
	// A serialize after a DRAM-missing load must hold fetch until the
	// miss resolves: total time ≈ miss + serialize, not overlapped nops.
	cfg := DefaultConfig()
	b := isa.NewBuilder("serload")
	a := b.Imm(2048)
	d := b.Reg()
	b.Load(d, a, 0) // cold DRAM miss
	b.Serialize()
	for i := 0; i < 50; i++ {
		b.Nop()
	}
	b.Halt()
	c, _ := testRig(cfg, 1<<16)
	c.Load(b.MustBuild(), nil)
	cycles := run(t, c, 100_000)
	minExpect := int64(200) + cfg.SerializeLat
	if cycles < minExpect {
		t.Errorf("serialize did not wait for the miss: %d cycles, want >= %d", cycles, minExpect)
	}
}

func TestFullWindowStall(t *testing.T) {
	// A tight loop around a dependent DRAM miss stalls at the ROB head;
	// stall cycles must be attributed to the load's PC.
	m := mem.New(1 << 20)
	// arr[i] holds a pseudo-random index into a large victim array.
	arrBase, victimBase := int64(4096), int64(1<<16)
	iters := int64(64)
	for i := int64(0); i < iters; i++ {
		m.StoreWord(arrBase+i, victimBase+(i*7919%4096)*8)
	}
	mc := mem.NewController(mem.ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	llc := cache.New("LLC", cache.DefaultLLCConfig())
	hcfg := cache.DefaultHierarchyConfig()
	hcfg.HWPrefetch = false
	h := cache.NewHierarchy(hcfg, llc, mc)
	c := New(DefaultConfig(), h, m)

	b := isa.NewBuilder("fws")
	b.Func("main")
	acc := b.Imm(0)
	base := b.Imm(arrBase)
	zero := b.Imm(0)
	n := b.Imm(iters)
	var loadPC int
	b.CountedLoop("loop", zero, n, func(i isa.Reg) {
		a := b.Reg()
		b.Add(a, base, i)
		idx := b.Reg()
		b.Load(idx, a, 0)
		v := b.Reg()
		loadPC = b.Load(v, idx, 0) // dependent, cache-missing load
		// Computation with the loaded value.
		x := b.Reg()
		b.Mul(x, v, v)
		b.Add(acc, acc, x)
	})
	out := b.Imm(128)
	b.Store(out, 0, acc)
	b.Halt()
	c.Load(b.MustBuild(), nil)
	run(t, c, 10_000_000)

	stall, exec := c.PCProfile(0)
	if exec[loadPC] != iters {
		t.Errorf("target load executed %d times, want %d", exec[loadPC], iters)
	}
	cpi := float64(stall[loadPC]) / float64(exec[loadPC])
	if cpi < 10 {
		t.Errorf("target load CPI = %.1f; expected a stalling load (>10)", cpi)
	}
	// The stall cycles must concentrate on the missing load, not on the
	// surrounding ALU work.
	var total int64
	for _, s := range stall {
		total += s
	}
	if stall[loadPC]*2 < total {
		t.Errorf("target load got %d of %d stall cycles; expected it to dominate", stall[loadPC], total)
	}
}

func TestSpawnPrefetchHelperWarmsCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpawnCostMain = 50
	cfg.SpawnCostHelper = 20

	nLines := 16
	// Helper prefetches nLines distinct lines.
	hb := isa.NewBuilder("helper")
	base := hb.Imm(8192)
	for i := 0; i < nLines; i++ {
		hb.Prefetch(base, int64(i*8))
	}
	hb.Halt()
	helper := hb.MustBuild()

	// Main spawns, burns time in an ALU loop, then loads the lines.
	b := isa.NewBuilder("main")
	b.Spawn(0)
	d := b.Imm(1)
	zero := b.Imm(0)
	n := b.Imm(3000)
	b.CountedLoop("delay", zero, n, func(i isa.Reg) {
		b.AddI(d, d, 1)
	})
	mbase := b.Imm(8192)
	v := b.Reg()
	for i := 0; i < nLines; i++ {
		b.Load(v, mbase, int64(i*8))
	}
	b.Join()
	b.Halt()

	c, _ := testRig(cfg, 1<<16)
	c.Load(b.MustBuild(), []*isa.Program{helper})
	run(t, c, 1_000_000)

	if c.Prefetches != int64(nLines) {
		t.Errorf("helper issued %d prefetches, want %d", c.Prefetches, nLines)
	}
	if c.LoadLevel[cache.LevelL1] < int64(nLines) {
		t.Errorf("main saw %d L1 hits, want >= %d (prefetched lines)",
			c.LoadLevel[cache.LevelL1], nLines)
	}
	if c.Spawns != 1 {
		t.Errorf("Spawns = %d, want 1", c.Spawns)
	}
}

func TestJoinKillsRunningHelper(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpawnCostMain = 10
	cfg.SpawnCostHelper = 10
	// Helper loops (almost) forever.
	hb := isa.NewBuilder("spinner")
	i := hb.Imm(0)
	lim := hb.Imm(1 << 40)
	one := hb.Imm(1)
	l := hb.HereLabel()
	hb.Add(i, i, one)
	hb.BLT(i, lim, l)
	hb.Halt()

	b := isa.NewBuilder("main")
	b.Spawn(0)
	d := b.Imm(0)
	for k := 0; k < 100; k++ {
		b.AddI(d, d, 1)
	}
	b.Join() // kill
	b.Halt()

	c, _ := testRig(cfg, 1024)
	c.Load(b.MustBuild(), []*isa.Program{hb.MustBuild()})
	cycles := run(t, c, 100_000)
	if cycles >= 100_000 {
		t.Error("join did not kill the helper")
	}
	if c.HelperActive() {
		t.Error("helper still active after join")
	}
}

func TestJoinWaitWaitsForWorker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpawnCostMain = 10
	cfg.SpawnCostHelper = 10
	// Worker stores a marker after a long delay loop.
	hb := isa.NewBuilder("worker")
	d := hb.Imm(0)
	zero := hb.Imm(0)
	n := hb.Imm(2000)
	hb.CountedLoop("work", zero, n, func(i isa.Reg) {
		hb.AddI(d, d, 1)
	})
	out := hb.Imm(100)
	hb.Store(out, 0, d)
	hb.Halt()

	b := isa.NewBuilder("main")
	b.Spawn(0)
	b.JoinWait()
	// After the join-wait the worker's result must be visible.
	outm := b.Imm(100)
	v := b.Reg()
	b.Load(v, outm, 0)
	res := b.Imm(101)
	b.Store(res, 0, v)
	b.Halt()

	c, m := testRig(cfg, 4096)
	c.Load(b.MustBuild(), []*isa.Program{hb.MustBuild()})
	run(t, c, 1_000_000)
	if got := m.LoadWord(101); got != 2000 {
		t.Errorf("join-wait read %d, want 2000 (worker finished first)", got)
	}
}

func TestSMTPartitioningHalvesROB(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := testRig(cfg, 1024)
	b := isa.NewBuilder("p")
	b.Halt()
	c.Load(b.MustBuild(), nil)
	if got := c.robCap(); got != cfg.ROBSize {
		t.Errorf("single-thread ROB cap = %d, want %d", got, cfg.ROBSize)
	}
	c.threads[1].active = true
	c.threads[1].finished = false
	if got := c.robCap(); got != cfg.ROBSize/2 {
		t.Errorf("SMT ROB cap = %d, want %d", got, cfg.ROBSize/2)
	}
	if got := c.lqCap(); got != cfg.LoadQ/2 {
		t.Errorf("SMT LQ cap = %d, want %d", got, cfg.LoadQ/2)
	}
	if got := c.sqCap(); got != cfg.StoreQ/2 {
		t.Errorf("SMT SQ cap = %d, want %d", got, cfg.StoreQ/2)
	}
}

func TestRunCycleGuard(t *testing.T) {
	b := isa.NewBuilder("spin")
	i := b.Imm(0)
	lim := b.Imm(1 << 40)
	l := b.HereLabel()
	b.AddI(i, i, 1)
	b.BLT(i, lim, l)
	b.Halt()
	c, _ := testRig(DefaultConfig(), 1024)
	c.Load(b.MustBuild(), nil)
	if _, err := c.Run(10_000); err == nil {
		t.Error("cycle guard did not trip")
	}
}

func TestPrefetchDoesNotBlockRetirement(t *testing.T) {
	// A stream of prefetches to cold lines must retire at near-ALU speed:
	// they are fire-and-forget.
	b := isa.NewBuilder("pf")
	base := b.Imm(4096)
	for i := 0; i < 32; i++ {
		b.Prefetch(base, int64(i*8))
	}
	b.Halt()
	c, _ := testRig(DefaultConfig(), 1<<16)
	c.Load(b.MustBuild(), nil)
	cycles := run(t, c, 100_000)
	// 32 prefetches, 16 MSHRs: two waves of fills bound the MSHR
	// recycling, but nothing waits for data.
	if cycles > 600 {
		t.Errorf("32 prefetches took %d cycles; they should not block retirement", cycles)
	}
}
