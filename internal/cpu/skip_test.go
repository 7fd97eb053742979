package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"ghostthread/internal/cache"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/obs"
)

// coreStats captures every externally observable statistic of a finished
// core, so the event-skip fast path can be proved bit-identical to the
// cycle-by-cycle reference.
type coreStats struct {
	cycles        int64
	err           string
	committed     [2]int64
	serializes    [2]int64
	serStall      [2]int64
	frontend      [2]int64
	stall         []int64
	exec          []int64
	loadLevel     [4]int64
	prefetchLevel [4]int64
	stores        int64
	prefetches    int64
	spawns        int64
	l1            [3]int64
	l2            [3]int64
	llc           [3]int64
	hwPrefetches  int64
	transfers     int64
	pfQuality     cache.PrefetchQuality
}

func cacheCounters(c *cache.Cache) [3]int64 {
	return [3]int64{c.Hits, c.InFlightHits, c.Misses}
}

func statsOf(c *Core) coreStats {
	s := coreStats{
		cycles:        c.Now(),
		committed:     [2]int64{c.Committed(0), c.Committed(1)},
		serializes:    [2]int64{c.Serializes(0), c.Serializes(1)},
		serStall:      [2]int64{c.SerializeStall(0), c.SerializeStall(1)},
		frontend:      [2]int64{c.FrontendStalls(0), c.FrontendStalls(1)},
		loadLevel:     c.LoadLevel,
		prefetchLevel: c.PrefetchLevel,
		stores:        c.Stores,
		prefetches:    c.Prefetches,
		spawns:        c.Spawns,
		l1:            cacheCounters(c.Hier().L1),
		l2:            cacheCounters(c.Hier().L2),
		llc:           cacheCounters(c.Hier().LLC),
		hwPrefetches:  c.Hier().HWPrefetches,
		transfers:     c.Hier().MC.Transfers,
		pfQuality:     c.Hier().PrefetchQuality(),
	}
	if c.Err() != nil {
		s.err = c.Err().Error()
	}
	s.stall, s.exec = c.PCProfile(0)
	return s
}

// runStepwise is the per-cycle reference loop: Run without the NextEvent
// fast-forward, preserved verbatim so the differential tests below keep a
// ground truth to compare against.
func runStepwise(c *Core, maxCycles int64) (int64, error) {
	for c.Step() {
		if c.Now() >= maxCycles {
			return c.Now(), fmt.Errorf("cpu: exceeded %d cycles", maxCycles)
		}
	}
	return c.Now(), c.Err()
}

// buildRig constructs a fresh core + memory with hardware prefetching on
// (the default hierarchy), exercising the streamer under skipping too.
func buildRig(cfg Config, memWords int64, init func(*mem.Memory)) *Core {
	m := mem.New(memWords)
	if init != nil {
		init(m)
	}
	mc := mem.NewController(mem.DefaultControllerConfig())
	llc := cache.New("LLC", cache.DefaultLLCConfig())
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, mc)
	return New(cfg, h, m)
}

// diffCase runs one program through the stepwise reference and the
// skipping Run and asserts every statistic matches bit for bit.
func diffCase(t *testing.T, name string, cfg Config, memWords int64,
	init func(*mem.Memory), main *isa.Program, helpers []*isa.Program, maxCycles int64) {
	t.Helper()

	ref := buildRig(cfg, memWords, init)
	ref.Load(main, helpers)
	runStepwise(ref, maxCycles)
	want := statsOf(ref)

	opt := buildRig(cfg, memWords, init)
	opt.Load(main, helpers)
	opt.Run(maxCycles)
	got := statsOf(opt)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: event-skip diverged from per-cycle reference\n ref: %+v\nskip: %+v", name, want, got)
	}
}

func TestSkipEquivalenceRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		p, _ := genProgram(seed)
		diffCase(t, fmt.Sprintf("rand-%d", seed), DefaultConfig(), 2048, nil, p, nil, 50_000_000)
	}
}

// chaseInit writes a cyclic pseudo-random permutation of ptrs words into
// memory starting at base: mem[base+i] = base + perm(i), so a pointer
// chase visits every slot once before wrapping.
func chaseInit(base, ptrs, stride int64) func(*mem.Memory) {
	return func(m *mem.Memory) {
		// A full-period LCG step over [0,ptrs): i -> (a*i + 1) mod ptrs
		// with a-1 divisible by every prime factor of ptrs (ptrs is a
		// power of two, so a ≡ 1 mod 4 works).
		idx := int64(0)
		for n := int64(0); n < ptrs; n++ {
			next := (5*idx + 1) % ptrs
			m.StoreWord(base+idx*stride, base+next*stride)
			idx = next
		}
	}
}

func chaseProgram(base int64, hops int) *isa.Program {
	b := isa.NewBuilder("chase")
	ptr := b.Imm(base)
	zero := b.Imm(0)
	n := b.Imm(int64(hops))
	b.CountedLoop("hop", zero, n, func(i isa.Reg) {
		b.Load(ptr, ptr, 0)
	})
	out := b.Imm(64)
	b.Store(out, 0, ptr)
	b.Halt()
	return b.MustBuild()
}

func TestSkipEquivalenceDRAMChase(t *testing.T) {
	// Dependent DRAM misses: the exact workload skipping accelerates,
	// with long inert spans between fill events.
	base := int64(1 << 14)
	diffCase(t, "chase", DefaultConfig(), 1<<17, chaseInit(base, 1<<12, 9),
		chaseProgram(base, 2000), nil, 10_000_000)
}

func TestSkipEquivalenceSerialize(t *testing.T) {
	b := isa.NewBuilder("ser")
	a := b.Imm(8192)
	d := b.Reg()
	for i := 0; i < 6; i++ {
		b.Load(d, a, int64(i*64))
		b.Serialize()
	}
	b.Halt()
	diffCase(t, "serialize", DefaultConfig(), 1<<16, nil, b.MustBuild(), nil, 1_000_000)
}

func TestSkipEquivalenceGhostHelper(t *testing.T) {
	// SMT spawn/join with a prefetching ghost: exercises startAt wake-up,
	// SMT-halved structural limits, and mid-flight helper kill.
	cfg := DefaultConfig()
	base := int64(1 << 13)

	hb := isa.NewBuilder("ghost")
	hbase := hb.Imm(base)
	hptr := hb.Reg()
	hb.Mov(hptr, hbase)
	hzero := hb.Imm(0)
	hn := hb.Imm(256)
	hb.CountedLoop("pf", hzero, hn, func(i isa.Reg) {
		hb.Load(hptr, hptr, 0)
		hb.Prefetch(hptr, 0)
	})
	hb.Halt()

	b := isa.NewBuilder("main")
	b.Spawn(0)
	mbase := b.Imm(base)
	ptr := b.Reg()
	b.Mov(ptr, mbase)
	zero := b.Imm(0)
	n := b.Imm(256)
	acc := b.Imm(0)
	b.CountedLoop("walk", zero, n, func(i isa.Reg) {
		b.Load(ptr, ptr, 0)
		b.Add(acc, acc, ptr)
	})
	b.Join()
	out := b.Imm(64)
	b.Store(out, 0, acc)
	b.Halt()

	diffCase(t, "ghost", cfg, 1<<16, chaseInit(base, 1<<9, 9),
		b.MustBuild(), []*isa.Program{hb.MustBuild()}, 10_000_000)
}

// TestTraceDifferentialCore: attaching a recorder to a core must leave
// every statistic bit-identical — the cpu-level version of the
// sim-package tracing differential, on the spawn/join/serialize rig that
// exercises the most emission sites (including the partial serialize
// span at a join kill).
func TestTraceDifferentialCore(t *testing.T) {
	base := int64(1 << 13)
	build := func() (*isa.Program, []*isa.Program) {
		hb := isa.NewBuilder("ghost")
		hptr := hb.Imm(base)
		hzero := hb.Imm(0)
		hn := hb.Imm(512)
		hb.CountedLoop("pf", hzero, hn, func(i isa.Reg) {
			hb.Load(hptr, hptr, 0)
			hb.Prefetch(hptr, 0)
			hb.Serialize()
		})
		hb.Halt()

		b := isa.NewBuilder("main")
		b.Spawn(0)
		ptr := b.Imm(base)
		zero := b.Imm(0)
		n := b.Imm(128)
		acc := b.Imm(0)
		b.CountedLoop("walk", zero, n, func(i isa.Reg) {
			b.Load(ptr, ptr, 0)
			b.Add(acc, acc, ptr)
		})
		b.Join()
		out := b.Imm(64)
		b.Store(out, 0, acc)
		b.Halt()
		return b.MustBuild(), []*isa.Program{hb.MustBuild()}
	}

	run := func(traced bool) (coreStats, []obs.Event) {
		main, helpers := build()
		c := buildRig(DefaultConfig(), 1<<16, chaseInit(base, 1<<9, 9))
		c.Load(main, helpers)
		var rec *obs.Recorder
		if traced {
			rec = obs.NewRecorder(1 << 16)
			c.SetTrace(rec, 0)
		}
		if _, err := c.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		var events []obs.Event
		if traced {
			events = rec.Events()
		}
		return statsOf(c), events
	}

	off, _ := run(false)
	on, events := run(true)
	if !reflect.DeepEqual(off, on) {
		t.Errorf("tracing changed core statistics\n off: %+v\n  on: %+v", off, on)
	}
	if len(events) == 0 {
		t.Fatal("traced run recorded no events; test proves nothing")
	}
	var spanSum int64
	for _, e := range events {
		if e.Kind == obs.KindSerialize {
			spanSum += e.Dur
		}
	}
	if want := on.serStall[0] + on.serStall[1]; spanSum != want {
		t.Errorf("serialize spans sum to %d, counter says %d", spanSum, want)
	}
}

func TestSkipEquivalenceJoinWait(t *testing.T) {
	cfg := DefaultConfig()
	hb := isa.NewBuilder("worker")
	d := hb.Imm(0)
	zero := hb.Imm(0)
	n := hb.Imm(1500)
	hb.CountedLoop("work", zero, n, func(i isa.Reg) {
		hb.AddI(d, d, 1)
	})
	out := hb.Imm(100)
	hb.Store(out, 0, d)
	hb.Halt()

	b := isa.NewBuilder("main")
	b.Spawn(0)
	b.JoinWait()
	outm := b.Imm(100)
	v := b.Reg()
	b.Load(v, outm, 0)
	res := b.Imm(101)
	b.Store(res, 0, v)
	b.Halt()

	diffCase(t, "joinwait", cfg, 4096, nil, b.MustBuild(), []*isa.Program{hb.MustBuild()}, 1_000_000)
}

func TestSkipEquivalenceCycleGuard(t *testing.T) {
	// The cycle guard must trip at the same point: the skip target is
	// capped at maxCycles-1 so the guard sees the same Now() values.
	b := isa.NewBuilder("spin")
	a := b.Imm(1 << 14)
	ptr := b.Reg()
	b.Mov(ptr, a)
	i := b.Imm(0)
	lim := b.Imm(1 << 40)
	l := b.HereLabel()
	b.Load(ptr, ptr, 0)
	b.AddI(i, i, 1)
	b.BLT(i, lim, l)
	b.Halt()
	p := b.MustBuild()
	init := chaseInit(1<<14, 1<<12, 9)

	ref := buildRig(DefaultConfig(), 1<<17, init)
	ref.Load(p, nil)
	refCycles, refErr := runStepwise(ref, 20_000)

	opt := buildRig(DefaultConfig(), 1<<17, init)
	opt.Load(p, nil)
	optCycles, optErr := opt.Run(20_000)

	if (refErr == nil) != (optErr == nil) {
		t.Fatalf("guard mismatch: ref err=%v, skip err=%v", refErr, optErr)
	}
	if refErr == nil {
		t.Fatal("expected the cycle guard to trip")
	}
	if refCycles != optCycles {
		t.Errorf("guard tripped at %d (skip) vs %d (ref)", optCycles, refCycles)
	}
}
