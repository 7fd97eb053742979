package cache

import (
	"testing"

	"ghostthread/internal/mem"
)

func TestStreamerTracksMultipleStreams(t *testing.T) {
	h := streamerHierarchy()
	// Interleave two streams; both must be covered after training.
	var dram int
	nowA, nowB := int64(0), int64(0)
	for l := int64(0); l < 32; l++ {
		ra := h.DemandAccess(0x10000+l*mem.LineWords, nowA)
		if ra.Level == LevelDRAM {
			dram++
		}
		nowA = ra.CompleteAt + 4
		rb := h.DemandAccess(0x40000+l*mem.LineWords, nowB)
		if rb.Level == LevelDRAM {
			dram++
		}
		nowB = rb.CompleteAt + 4
	}
	if dram > 8 {
		t.Errorf("two interleaved streams saw %d DRAM demand accesses", dram)
	}
}

func TestStreamerIgnoresRandomMisses(t *testing.T) {
	h := streamerHierarchy()
	// Random (non-sequential) misses never confirm a tracker: no fills.
	addrs := []int64{0x1000, 0x9000, 0x3000, 0xF000, 0x5000, 0xB000}
	for i, a := range addrs {
		h.DemandAccess(a, int64(i*1000))
	}
	if h.HWPrefetches != 0 {
		t.Errorf("random misses triggered %d prefetches", h.HWPrefetches)
	}
}

func TestStreamerTrainsOnSecondSequentialMiss(t *testing.T) {
	h := streamerHierarchy()
	h.DemandAccess(0x2000, 0) // allocate tracker
	if h.HWPrefetches != 0 {
		t.Error("first miss already prefetched")
	}
	h.DemandAccess(0x2000+mem.LineWords, 500) // confirm
	if h.HWPrefetches == 0 {
		t.Error("confirmed stream did not prefetch")
	}
	// The next several lines must now be resident or in flight in L2.
	for d := int64(2); d <= 4; d++ {
		line := LineOf(0x2000) + d
		if r, _ := h.L2.peek(line, 1_000_000); !r {
			if r1, _ := h.L1.peek(line, 1_000_000); !r1 {
				t.Errorf("line +%d not prefetched", d)
			}
		}
	}
}

func TestPeekReady(t *testing.T) {
	c := New("t", Config{SizeWords: 8 * mem.LineWords, Ways: 2})
	if _, ok := c.peekReady(9); ok {
		t.Error("absent line reported ready")
	}
	c.install(9, 1234, 10)
	ra, ok := c.peekReady(9)
	if !ok || ra != 1234 {
		t.Errorf("peekReady = (%d, %v), want (1234, true)", ra, ok)
	}
}

func TestHWPrefetchCountsFills(t *testing.T) {
	h := streamerHierarchy()
	h.DemandAccess(0x2000, 0)
	h.DemandAccess(0x2000+mem.LineWords, 500)
	deg := DefaultHierarchyConfig().PrefetchDegree
	if h.HWPrefetches < deg {
		t.Errorf("HWPrefetches = %d, want at least the degree %d", h.HWPrefetches, deg)
	}
}
