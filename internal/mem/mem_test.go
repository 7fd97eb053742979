package mem

import "testing"

func TestMemoryLoadStore(t *testing.T) {
	m := New(128)
	m.StoreWord(5, 42)
	if got := m.LoadWord(5); got != 42 {
		t.Errorf("LoadWord(5) = %d, want 42", got)
	}
	if got := m.LoadWord(6); got != 0 {
		t.Errorf("LoadWord(6) = %d, want 0 (zero-initialised)", got)
	}
}

func TestMemoryBoundsPanic(t *testing.T) {
	m := New(8)
	for _, addr := range []int64{-1, 8, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for out-of-range address %d", addr)
				}
			}()
			m.LoadWord(addr)
		}()
	}
}

func TestFillAndCopyIn(t *testing.T) {
	m := New(64)
	m.Fill(8, 4, 7)
	for i := int64(8); i < 12; i++ {
		if m.LoadWord(i) != 7 {
			t.Errorf("word %d = %d, want 7", i, m.LoadWord(i))
		}
	}
	m.CopyIn(16, []int64{1, 2, 3})
	if got := m.Slice(16, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("CopyIn mismatch: %v", got)
	}
}

func TestHeapAlignmentAndReservedNull(t *testing.T) {
	m := New(1024)
	h := NewHeap(m)
	a := h.Alloc(3)
	b := h.Alloc(1)
	c := h.Alloc(17)
	if a == 0 {
		t.Error("first allocation landed on the reserved null line")
	}
	for name, addr := range map[string]int64{"a": a, "b": b, "c": c} {
		if addr%LineWords != 0 {
			t.Errorf("allocation %s at %d is not line-aligned", name, addr)
		}
	}
	if b <= a || c <= b {
		t.Errorf("allocations not monotonic: %d, %d, %d", a, b, c)
	}
	if b-a < 3 {
		t.Errorf("allocation a too small: next at %d", b)
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	m := New(32)
	h := NewHeap(m)
	defer func() {
		if recover() == nil {
			t.Error("no panic on heap exhaustion")
		}
	}()
	h.Alloc(1000)
}

func TestControllerUnloadedLatency(t *testing.T) {
	c := NewController(ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	if got := c.Schedule(100); got != 300 {
		t.Errorf("unloaded access completes at %d, want 300", got)
	}
}

func TestControllerQueueing(t *testing.T) {
	c := NewController(ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	// Back-to-back requests at the same cycle serialise on the channel.
	t0 := c.Schedule(0)
	t1 := c.Schedule(0)
	t2 := c.Schedule(0)
	if t0 != 200 || t1 != 204 || t2 != 208 {
		t.Errorf("queueing times = %d, %d, %d; want 200, 204, 208", t0, t1, t2)
	}
	if c.Transfers != 3 {
		t.Errorf("Transfers = %d, want 3", c.Transfers)
	}
}

func TestControllerIdleGapsDrainQueue(t *testing.T) {
	c := NewController(ControllerConfig{AccessLatency: 10, CyclesPerLine: 4})
	c.Schedule(0)
	// After a long idle gap the channel is free again.
	if got := c.Schedule(1000); got != 1010 {
		t.Errorf("post-gap access completes at %d, want 1010", got)
	}
}

func TestControllerPressureStealsBandwidth(t *testing.T) {
	idle := NewController(ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	busy := NewController(ControllerConfig{AccessLatency: 200, CyclesPerLine: 4,
		PressureLinesPerKCycle: 125}) // half the 250-lines/kcycle peak

	// Issue a dense request stream; under pressure the same stream must
	// finish later because pressure traffic occupies channel slots.
	var idleLast, busyLast int64
	for now := int64(0); now < 10000; now += 4 {
		idleLast = idle.Schedule(now)
		busyLast = busy.Schedule(now)
	}
	if busyLast <= idleLast {
		t.Errorf("pressure did not add queueing: idle %d, busy %d", idleLast, busyLast)
	}
}

func TestControllerPressureDoesNotBlockIdleChannel(t *testing.T) {
	busy := NewController(ControllerConfig{AccessLatency: 200, CyclesPerLine: 4,
		PressureLinesPerKCycle: 125})
	// A sparse stream (far below remaining bandwidth) should see roughly
	// unloaded latency: pressure consumes idle slots, not future ones.
	got := busy.Schedule(100_000)
	if got > 100_000+200+8 {
		t.Errorf("sparse access under pressure completes at %d, want about %d", got, 100_200)
	}
}

func TestHeapAllocSliceRoundTrip(t *testing.T) {
	m := New(256)
	h := NewHeap(m)
	vs := []int64{5, -7, 9}
	base := h.AllocSlice(vs)
	for i, v := range vs {
		if got := m.LoadWord(base + int64(i)); got != v {
			t.Errorf("word %d = %d, want %d", i, got, v)
		}
	}
	if h.Mem() != m {
		t.Error("Mem() does not return the backing memory")
	}
	if h.Used() <= base {
		t.Errorf("Used() = %d, want past %d", h.Used(), base)
	}
}

func TestControllerZeroCyclesPerLineDefaults(t *testing.T) {
	c := NewController(ControllerConfig{AccessLatency: 10})
	if got := c.Schedule(0); got != 10 {
		t.Errorf("schedule = %d, want 10", got)
	}
	t0 := c.Schedule(0)
	if t0 != 11 { // serialised by the defaulted 1-cycle line time
		t.Errorf("second schedule = %d, want 11", t0)
	}
}
