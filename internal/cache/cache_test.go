package cache

import (
	"testing"

	"ghostthread/internal/mem"
)

func testHierarchy() *Hierarchy {
	mc := mem.NewController(mem.ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	llc := New("LLC", DefaultLLCConfig())
	cfg := DefaultHierarchyConfig()
	cfg.HWPrefetch = false // unit tests probe exact per-level behaviour
	return NewHierarchy(cfg, llc, mc)
}

func streamerHierarchy() *Hierarchy {
	mc := mem.NewController(mem.ControllerConfig{AccessLatency: 200, CyclesPerLine: 4})
	llc := New("LLC", DefaultLLCConfig())
	return NewHierarchy(DefaultHierarchyConfig(), llc, mc)
}

func TestStreamerCoversSequentialScan(t *testing.T) {
	h := streamerHierarchy()
	// Walk 64 consecutive lines with a demand stream; after the first
	// few misses the streamer must keep the rest out of DRAM.
	dramBefore := h.MC.Transfers
	var dramHits int
	now := int64(0)
	for l := int64(0); l < 64; l++ {
		res := h.DemandAccess(0x4000+l*mem.LineWords, now)
		if res.Level == LevelDRAM {
			dramHits++
		}
		now = res.CompleteAt + 8
	}
	if dramHits > 4 {
		t.Errorf("sequential scan saw %d demand DRAM accesses; streamer should hide them", dramHits)
	}
	if h.HWPrefetches == 0 {
		t.Error("streamer issued no prefetches")
	}
	_ = dramBefore
}

func TestStreamerDoesNotTrainOnSWPrefetch(t *testing.T) {
	h := streamerHierarchy()
	h.Access(0x8000, 0) // software prefetch path
	if h.HWPrefetches != 0 {
		t.Errorf("software prefetch trained the streamer (%d fills)", h.HWPrefetches)
	}
}

func TestColdMissGoesToDRAM(t *testing.T) {
	h := testHierarchy()
	res := h.Access(0x100, 10)
	if res.Level != LevelDRAM {
		t.Errorf("cold access level = %s, want DRAM", res.Level)
	}
	if !res.NewMiss {
		t.Error("cold access did not allocate an MSHR")
	}
	if res.CompleteAt < 10+h.cfg.LLCLat+200 {
		t.Errorf("cold access completed too fast: %d", res.CompleteAt)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	h := testHierarchy()
	r1 := h.Access(0x100, 0)
	// Access again after the fill lands: L1 hit at L1 latency.
	now := r1.CompleteAt + 1
	r2 := h.Access(0x100, now)
	if r2.Level != LevelL1 || r2.NewMiss {
		t.Errorf("post-fill access: level=%s newMiss=%v, want L1 hit", r2.Level, r2.NewMiss)
	}
	if r2.CompleteAt != now+h.cfg.L1Lat {
		t.Errorf("L1 hit completes at %d, want %d", r2.CompleteAt, now+h.cfg.L1Lat)
	}
}

func TestSameLineMergesIntoInflightFill(t *testing.T) {
	h := testHierarchy()
	r1 := h.Access(0x100, 0)
	// A second access to the same line while the fill is in flight must
	// not allocate a new MSHR and completes when the fill lands.
	r2 := h.Access(0x101, 5)
	if r2.NewMiss {
		t.Error("in-flight merge allocated a new MSHR")
	}
	if r2.CompleteAt != r1.CompleteAt {
		t.Errorf("merged access completes at %d, want %d", r2.CompleteAt, r1.CompleteAt)
	}
	if h.L1.InFlightHits != 1 {
		t.Errorf("InFlightHits = %d, want 1", h.L1.InFlightHits)
	}
}

func TestLatePrefetchPartiallyHidesLatency(t *testing.T) {
	h := testHierarchy()
	r1 := h.Access(0x200, 0) // prefetch starts the fill
	mid := r1.CompleteAt / 2
	r2 := h.Access(0x200, mid) // demand load arrives mid-fill
	if r2.CompleteAt != r1.CompleteAt {
		t.Errorf("late-prefetch demand completes at %d, want fill time %d", r2.CompleteAt, r1.CompleteAt)
	}
	if r2.CompleteAt-mid >= r1.CompleteAt {
		t.Error("late prefetch hid no latency")
	}
}

func TestEarlyPrefetchEvictedBeforeUse(t *testing.T) {
	h := testHierarchy()
	h.Access(0x300, 0)
	// Thrash the whole L1, L2, and LLC so 0x300 is evicted everywhere.
	llcWords := DefaultLLCConfig().SizeWords
	for a := int64(0); a < llcWords*2; a += mem.LineWords {
		h.Access(0x10000+a, 100)
	}
	res := h.Access(0x300, 1_000_000)
	if res.Level != LevelDRAM {
		t.Errorf("evicted line was found at %s, want DRAM (pollution model)", res.Level)
	}
}

func TestLRUEvictsOldestWithinSet(t *testing.T) {
	c := New("t", Config{SizeWords: 2 * mem.LineWords, Ways: 2}) // 1 set, 2 ways
	c.install(1, 0, 10)
	c.install(2, 0, 20)
	c.lookup(1, 30, true) // refresh line 1
	c.install(3, 0, 40)
	if !c.Contains(1, 50) {
		t.Error("recently used line 1 was evicted")
	}
	if c.Contains(2, 50) {
		t.Error("LRU line 2 survived eviction")
	}
	if !c.Contains(3, 50) {
		t.Error("newly installed line 3 missing")
	}
}

func TestHitMissCounters(t *testing.T) {
	h := testHierarchy()
	h.Access(0x400, 0)
	r := h.Access(0x400, 10_000)
	if r.Level != LevelL1 {
		t.Fatalf("expected warm L1 hit, got %s", r.Level)
	}
	if h.L1.Hits != 1 || h.L1.Misses != 1 {
		t.Errorf("L1 hits/misses = %d/%d, want 1/1", h.L1.Hits, h.L1.Misses)
	}
	if h.L2.Misses != 1 || h.LLC.Misses != 1 {
		t.Errorf("L2/LLC misses = %d/%d, want 1/1", h.L2.Misses, h.LLC.Misses)
	}
}

func TestWouldMissL1IsSideEffectFree(t *testing.T) {
	h := testHierarchy()
	if !h.WouldMissL1(0x500, 0) {
		t.Error("cold line reported as present")
	}
	if h.L1.Hits != 0 || h.L1.Misses != 0 {
		t.Error("WouldMissL1 mutated counters")
	}
	h.Access(0x500, 0)
	if h.WouldMissL1(0x500, 1) {
		t.Error("in-flight line reported as needing a new MSHR")
	}
}

func TestL2HitFasterThanLLCFasterThanDRAM(t *testing.T) {
	h := testHierarchy()
	h.Access(0x600, 0)
	// Evict from L1 only: touch 1.25x the L1 capacity in distinct lines
	// (well under the L2 capacity, so 0x600 stays in L2).
	l1Words := DefaultHierarchyConfig().L1.SizeWords
	for a := int64(0); a < l1Words+l1Words/4; a += mem.LineWords {
		h.Access(0x20000+a, 500)
	}
	now := int64(10_000)
	r := h.Access(0x600, now)
	if r.Level != LevelL2 {
		t.Fatalf("expected L2 hit, got %s", r.Level)
	}
	if r.CompleteAt != now+h.cfg.L2Lat {
		t.Errorf("L2 hit completes at %d, want %d", r.CompleteAt, now+h.cfg.L2Lat)
	}
}

func TestConfigSets(t *testing.T) {
	cfg := Config{SizeWords: 1024, Ways: 8}
	if got := cfg.Sets(); got != 16 {
		t.Errorf("Sets() = %d, want 16", got)
	}
	tiny := Config{SizeWords: 8, Ways: 4}
	if got := tiny.Sets(); got != 1 {
		t.Errorf("tiny Sets() = %d, want 1", got)
	}
}

func TestPeekReadyExposesInFlightFills(t *testing.T) {
	h := testHierarchy()
	addr := int64(0x8000)
	line := addr / mem.LineWords
	if _, resident := h.L1.peekReady(line); resident {
		t.Fatal("line resident before any access")
	}
	res := h.DemandAccess(addr, 10) // cold DRAM miss; fill in flight
	ra, resident := h.L1.peekReady(line)
	if !resident {
		t.Fatal("line not resident in L1 after demand access")
	}
	if ra != res.CompleteAt {
		t.Errorf("peekReady readyAt = %d, want fill completion %d", ra, res.CompleteAt)
	}
	// Peeking must not perturb counters or replacement state.
	hits, misses := h.L1.Hits, h.L1.Misses
	h.L1.peekReady(line)
	if h.L1.Hits != hits || h.L1.Misses != misses {
		t.Error("peekReady moved hit/miss counters")
	}
}
