package sim

import (
	"errors"
	"strings"
	"testing"

	"ghostthread/internal/gov"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// alu builds a program doing n dependent adds.
func alu(n int) *isa.Program {
	b := isa.NewBuilder("alu")
	d := b.Imm(0)
	for i := 0; i < n; i++ {
		b.AddI(d, d, 1)
	}
	out := b.Imm(32)
	b.Store(out, 0, d)
	b.Halt()
	return b.MustBuild()
}

func TestRunProgramBasics(t *testing.T) {
	m := mem.New(1024)
	res, err := RunProgram(DefaultConfig(), m, alu(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.LoadWord(32) != 100 {
		t.Errorf("result = %d, want 100", m.LoadWord(32))
	}
	if res.Cycles == 0 || res.Committed == 0 {
		t.Error("empty statistics")
	}
	if res.MainCommitted != res.Committed {
		t.Errorf("single-thread run: main %d != total %d", res.MainCommitted, res.Committed)
	}
}

func TestMultiCoreCoresRunConcurrently(t *testing.T) {
	// Two cores running the same ALU work should finish in about the
	// same wall-clock cycles as one (they only share caches).
	m1 := mem.New(1024)
	cfg := DefaultConfig()
	r1, err := RunProgram(cfg, m1, alu(5000), nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := DefaultConfig()
	cfg2.Cores = 2
	m2 := mem.New(1024)
	s := New(cfg2, m2)
	// Give the second core its own output word to avoid a racy store.
	b := isa.NewBuilder("alu2")
	d := b.Imm(0)
	for i := 0; i < 5000; i++ {
		b.AddI(d, d, 1)
	}
	out := b.Imm(48)
	b.Store(out, 0, d)
	b.Halt()
	s.Load(0, alu(5000), nil)
	s.Load(1, b.MustBuild(), nil)
	r2, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m2.LoadWord(32) != 5000 || m2.LoadWord(48) != 5000 {
		t.Error("per-core results wrong")
	}
	if r2.Cycles > r1.Cycles*3/2 {
		t.Errorf("two independent cores took %d cycles vs %d for one", r2.Cycles, r1.Cycles)
	}
	if len(r2.CoreCycles) != 2 {
		t.Errorf("CoreCycles has %d entries", len(r2.CoreCycles))
	}
}

func TestSharedMemoryBandwidthContention(t *testing.T) {
	// Two cores streaming disjoint large regions contend for the memory
	// channel: the pair must be slower than a lone core.
	stream := func(base int64) *isa.Program {
		b := isa.NewBuilder("stream")
		r := b.Imm(base)
		limit := b.Imm(base + 1<<15)
		d := b.Reg()
		b.CountedLoop("s", r, limit, func(a isa.Reg) {
			b.Load(d, a, 0)
			b.AddI(a, a, 7) // stride defeats the line reuse, not the streamer
		})
		b.Halt()
		return b.MustBuild()
	}
	m1 := mem.New(1 << 18)
	solo, err := RunProgram(DefaultConfig(), m1, stream(1024), nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Cores = 2
	m2 := mem.New(1 << 18)
	s := New(cfg, m2)
	s.Load(0, stream(1024), nil)
	s.Load(1, stream(1<<16), nil)
	pair, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pair.Cycles <= solo.Cycles {
		t.Errorf("no bandwidth contention: solo %d, pair %d", solo.Cycles, pair.Cycles)
	}
}

func TestBusyConfigSlowsMemoryBoundWork(t *testing.T) {
	stream := func() *isa.Program {
		b := isa.NewBuilder("stream")
		r := b.Imm(1024)
		limit := b.Imm(1024 + 1<<15)
		d := b.Reg()
		b.CountedLoop("s", r, limit, func(a isa.Reg) {
			b.Load(d, a, 0)
			b.AddI(a, a, 7)
		})
		b.Halt()
		return b.MustBuild()
	}
	idle, err := RunProgram(DefaultConfig(), mem.New(1<<18), stream(), nil)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := RunProgram(BusyConfig(), mem.New(1<<18), stream(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if busy.Cycles <= idle.Cycles {
		t.Errorf("busy server not slower: idle %d, busy %d", idle.Cycles, busy.Cycles)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	b := isa.NewBuilder("spin")
	i := b.Imm(0)
	lim := b.Imm(1 << 40)
	l := b.HereLabel()
	b.AddI(i, i, 1)
	b.BLT(i, lim, l)
	b.Halt()
	cfg := DefaultConfig()
	cfg.MaxCycles = 5000
	if _, err := RunProgram(cfg, mem.New(1024), b.MustBuild(), nil); err == nil {
		t.Error("MaxCycles guard did not trip")
	}
}

func TestCoreCyclesRecordFinishTimes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	m := mem.New(1024)
	s := New(cfg, m)
	s.Load(0, alu(100), nil)   // finishes quickly
	s.Load(1, alu(20000), nil) // much longer
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreCycles[0] >= res.CoreCycles[1] {
		t.Errorf("finish times not ordered: %v", res.CoreCycles)
	}
	if res.Cycles != res.CoreCycles[1] {
		t.Errorf("total cycles %d != slowest core %d", res.Cycles, res.CoreCycles[1])
	}
}

func TestFinishAtSentinelIsNegative(t *testing.T) {
	// finishAt must use -1 for "not finished": 0 is a valid finish cycle,
	// and the old 0-sentinel made the two indistinguishable.
	cfg := DefaultConfig()
	cfg.Cores = 2
	s := New(cfg, mem.New(1024))
	for i, f := range s.finishAt {
		if f != -1 {
			t.Errorf("after New: finishAt[%d] = %d, want -1", i, f)
		}
	}
	s.Load(0, alu(10), nil)
	s.Load(1, alu(10), nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Load(0, alu(10), nil)
	if s.finishAt[0] != -1 {
		t.Errorf("after Load: finishAt[0] = %d, want -1", s.finishAt[0])
	}
}

func TestBusyConfigRaisesLatency(t *testing.T) {
	idle := DefaultConfig()
	busy := BusyConfig()
	if busy.MemCtl.AccessLatency <= idle.MemCtl.AccessLatency {
		t.Error("busy server should raise DRAM latency")
	}
	if busy.MemCtl.PressureLinesPerKCycle == 0 {
		t.Error("busy server has no bandwidth pressure")
	}
}

// TestBadConfigIsAnError: an invalid governor config, a governor
// without telemetry and a retuning governor on two cores must not panic
// in New; Run returns a *ConfigError before stepping a single cycle.
func TestBadConfigIsAnError(t *testing.T) {
	badGov := DefaultConfig()
	badGov.Telemetry.WindowCycles = 1000
	badGov.Governor = gov.Default()
	badGov.Governor.Retune = true // without its sync-word addresses
	noTele := DefaultConfig()
	noTele.Governor = gov.Default()
	multiRetune := DefaultConfig()
	multiRetune.Cores = 2
	multiRetune.Telemetry.WindowCycles = 1000
	multiRetune.Governor = gov.Default()
	multiRetune.Governor.Retune = true
	multiRetune.Governor.TooFarAddr, multiRetune.Governor.CloseAddr = 8, 16
	multiRetune.Governor.TooFarInit, multiRetune.Governor.CloseInit = 96, 48
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"invalid governor", badGov, "Retune requires"},
		{"governor without telemetry", noTele, "requires telemetry"},
		{"retune on two cores", multiRetune, "single core"},
	} {
		s := New(tc.cfg, mem.New(1024))
		s.Load(0, alu(10), nil)
		_, err := s.Run()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: Run returned %v, want a *ConfigError", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if now := s.Core(0).Now(); now != 0 {
			t.Errorf("%s: core stepped to cycle %d before the config error", tc.name, now)
		}
	}
}
