// Package cache models the simulated core's cache hierarchy: per-core L1
// and L2, a shared last-level cache, and the path to the memory
// controller. Lines carry a readyAt timestamp so that in-flight fills,
// late prefetches ("data arrives after the demand load wanted it") and
// early prefetches ("line evicted before use" — cache pollution) all fall
// out of the model naturally, which is what the paper's timeliness
// argument (§4.3) is about.
package cache

import (
	"fmt"

	"ghostthread/internal/mem"
)

// lineShift converts a word address to a line number.
const lineShift = 3 // 8 words = 64 bytes

// LineOf returns the cache-line number of a word address.
func LineOf(addr int64) int64 { return addr >> lineShift }

// Config sizes one cache level.
type Config struct {
	SizeWords int64 // total capacity in words
	Ways      int   // associativity
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int64 {
	lines := c.SizeWords / mem.LineWords
	sets := lines / int64(c.Ways)
	if sets < 1 {
		sets = 1
	}
	return sets
}

// Cache is one set-associative, LRU level. The zero value is unusable;
// construct with New.
type Cache struct {
	sets    int64
	setMask int64 // sets-1 when sets is a power of two, else -1 (probe uses %)
	ways    int
	tags    []int64 // sets*ways entries; -1 = invalid
	readyAt []int64 // fill-completion cycle per entry
	lastUse []int64 // LRU timestamp per entry
	swPf    []bool  // line was brought in by a software prefetch and not yet
	// demand-touched (prefetch-quality classification bit)

	Hits         int64 // hits on resident, filled lines
	InFlightHits int64 // hits on lines still being filled (MSHR merge)
	Misses       int64

	// PF classifies software prefetches by outcome. Populated only on the
	// level where swPf tags are planted (L1 in this hierarchy); see
	// PrefetchQuality for the taxonomy.
	PF PrefetchQuality
}

// New builds a cache level. Sizes that are not an exact multiple of
// ways*linewords are rounded down to one. The name labels the level at
// the call site only; the model does not keep it.
func New(_ string, cfg Config) *Cache {
	sets := cfg.Sets()
	n := sets * int64(cfg.Ways)
	mask := int64(-1)
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	c := &Cache{sets: sets, setMask: mask, ways: cfg.Ways,
		tags: make([]int64, n), readyAt: make([]int64, n), lastUse: make([]int64, n),
		swPf: make([]bool, n)}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// setBase returns the first entry index of line's set. Set counts are
// powers of two for every real configuration, turning the per-probe
// modulo into a mask; the division survives only for odd test sizes.
func (c *Cache) setBase(line int64) int64 {
	if c.setMask >= 0 {
		return (line & c.setMask) * int64(c.ways)
	}
	return (line % c.sets) * int64(c.ways)
}

// lookup probes for line; on hit it refreshes LRU state and returns the
// fill-ready cycle. demand distinguishes demand accesses from software
// prefetches: the first demand touch of a software-prefetched line
// classifies the prefetch as timely (fill already landed) or late (fill
// still in flight) and consumes the tag. Classification costs one bool
// test on the hit way, so the demand path is unchanged when no prefetch
// tags exist.
func (c *Cache) lookup(line, now int64, demand bool) (readyAt int64, hit bool) {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == line {
			c.lastUse[i] = now
			if c.readyAt[i] > now {
				c.InFlightHits++
			} else {
				c.Hits++
			}
			if c.swPf[i] && demand {
				c.swPf[i] = false
				if c.readyAt[i] > now {
					c.PF.Late++
				} else {
					c.PF.Timely++
				}
			}
			return c.readyAt[i], true
		}
	}
	c.Misses++
	return 0, false
}

// install places line with the given fill time, evicting the LRU way.
func (c *Cache) install(line, fillAt, now int64) {
	base := c.setBase(line)
	victim := base
	oldest := int64(1<<62 - 1)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == -1 {
			victim = i
			break
		}
		if c.lastUse[i] < oldest {
			oldest = c.lastUse[i]
			victim = i
		}
	}
	if c.swPf[victim] && c.tags[victim] != -1 {
		// A software-prefetched line is leaving without ever being
		// demand-touched: the prefetch was early (or plain wrong) and only
		// polluted the cache.
		c.PF.Evicted++
		c.swPf[victim] = false
	}
	c.tags[victim] = line
	c.readyAt[victim] = fillAt
	c.lastUse[victim] = now
}

// markSWPrefetched sets the software-prefetch classification tag on a
// resident line (the one a PrefetchAccess just installed).
func (c *Cache) markSWPrefetched(line int64) {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == line {
			c.swPf[i] = true
			return
		}
	}
}

// peekReady returns the fill-ready cycle for a resident line without
// touching replacement or counter state.
func (c *Cache) peekReady(line int64) (readyAt int64, resident bool) {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == line {
			return c.readyAt[i], true
		}
	}
	return 0, false
}

// delayReady pushes a resident line's fill-ready cycle out to at (never
// pulling an already-later fill in). Touches nothing else — no
// replacement, counter, or classification state.
func (c *Cache) delayReady(line, at int64) {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == line {
			if c.readyAt[i] < at {
				c.readyAt[i] = at
			}
			return
		}
	}
}

// ShiftUse moves a resident line's LRU stamp d cycles later, touching
// nothing else. A parked core (cpu/park.go) uses it to stamp the L1 hits
// it did not step as if it had.
func (c *Cache) ShiftUse(line, d int64) {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == line {
			c.lastUse[i] += d
			return
		}
	}
}

// peek probes for line without touching replacement or counter state.
// It reports residency and, when resident, whether the fill has landed.
func (c *Cache) peek(line, now int64) (resident, filled bool) {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == line {
			return true, c.readyAt[i] <= now
		}
	}
	return false, false
}

// Contains reports (for tests) whether line is resident and filled at now.
func (c *Cache) Contains(line, now int64) bool {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		i := base + int64(w)
		if c.tags[i] == line {
			return c.readyAt[i] <= now
		}
	}
	return false
}

// Level identifies where an access was satisfied.
type Level int

// Levels, ordered by distance from the core.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelDRAM
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// HierarchyConfig sizes a core's view of the hierarchy. LLC and the
// memory controller may be shared between cores (multi-core runs pass the
// same instances to every core's Hierarchy).
type HierarchyConfig struct {
	L1     Config
	L2     Config
	L1Lat  int64 // total load-to-use latency on an L1 hit
	L2Lat  int64 // total latency on an L2 hit
	LLCLat int64 // total latency on an LLC hit

	// HWPrefetch enables the streaming hardware prefetcher: a demand L1
	// miss that lands on the line a stream tracker predicted triggers
	// fills of the next PrefetchDegree lines. This is the
	// stand-in for the stride/stream prefetchers of real Intel cores —
	// without it, sequential scans (index arrays, CSR adjacency lists)
	// would pay full DRAM latency every 8 words, which no real machine
	// running these benchmarks does.
	HWPrefetch bool
	// PrefetchDegree is how many lines ahead the streamer fills per
	// trigger (Intel's L2 streamer runs up to 20 lines ahead).
	PrefetchDegree int64
}

// DefaultHierarchyConfig returns the scaled-down hierarchy the evaluation
// uses (inputs are scaled ~2^10 from the paper's, and caches scale with
// them; see DESIGN.md §7).
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:             Config{SizeWords: 8 * 1024 / mem.WordBytes, Ways: 8},  // 8 KiB (128 lines)
		L2:             Config{SizeWords: 16 * 1024 / mem.WordBytes, Ways: 8}, // 16 KiB
		L1Lat:          4,
		L2Lat:          14,
		LLCLat:         44,
		HWPrefetch:     true,
		PrefetchDegree: 8,
	}
}

// DefaultLLCConfig returns the shared LLC configuration (per system).
// Sized so the evaluation-scale working sets (graph property arrays, hash
// tables, value arrays) exceed it by the same ratio the paper's inputs
// exceed the i7-12700's 25 MiB LLC.
func DefaultLLCConfig() Config {
	return Config{SizeWords: 32 * 1024 / mem.WordBytes, Ways: 8} // 32 KiB
}

// Hierarchy is one core's access path: private L1/L2, shared LLC, shared
// memory controller.
type Hierarchy struct {
	cfg HierarchyConfig
	L1  *Cache
	L2  *Cache
	LLC *Cache
	MC  *mem.Controller

	// HWPrefetches counts next-line fills issued by the hardware
	// prefetcher.
	HWPrefetches int64

	// streams is the streamer's training table: an entry is confirmed
	// (and starts prefetching) only when a second miss lands on the line
	// it predicted, so random misses never trigger junk fills.
	streams   [32]streamEntry
	streamPtr int
}

type streamEntry struct {
	nextLine int64
	valid    bool
}

// NewHierarchy builds the private levels and wires the shared ones.
func NewHierarchy(cfg HierarchyConfig, llc *Cache, mc *mem.Controller) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1:  New("L1", cfg.L1),
		L2:  New("L2", cfg.L2),
		LLC: llc,
		MC:  mc,
	}
}

// AccessResult describes the timing outcome of one memory access.
type AccessResult struct {
	CompleteAt int64 // cycle the data is usable by the core
	Level      Level // where the access was satisfied
	NewMiss    bool  // true when a new L1 MSHR was allocated (L1 missed and no in-flight fill matched)
}

// Access performs a demand access (load, store RFO, or atomic) to word
// address addr at cycle now. It updates replacement and fill state
// immediately; timing is conveyed via CompleteAt.
func (h *Hierarchy) Access(addr, now int64) AccessResult {
	return h.access(addr, now, true)
}

func (h *Hierarchy) access(addr, now int64, demand bool) AccessResult {
	line := LineOf(addr)
	if readyAt, hit := h.L1.lookup(line, now, demand); hit {
		if readyAt > now {
			// Merged into the in-flight fill: an MSHR already exists.
			return AccessResult{CompleteAt: readyAt, Level: LevelL1}
		}
		return AccessResult{CompleteAt: now + h.cfg.L1Lat, Level: LevelL1}
	}
	if readyAt, hit := h.L2.lookup(line, now, demand); hit {
		fill := max(now+h.cfg.L2Lat, readyAt)
		h.L1.install(line, fill, now)
		return AccessResult{CompleteAt: fill, Level: LevelL2, NewMiss: true}
	}
	if readyAt, hit := h.LLC.lookup(line, now, demand); hit {
		fill := max(now+h.cfg.LLCLat, readyAt)
		h.L2.install(line, fill, now)
		h.L1.install(line, fill, now)
		return AccessResult{CompleteAt: fill, Level: LevelLLC, NewMiss: true}
	}
	fill := h.MC.Schedule(now + h.cfg.LLCLat)
	h.LLC.install(line, fill, now)
	h.L2.install(line, fill, now)
	h.L1.install(line, fill, now)
	return AccessResult{CompleteAt: fill, Level: LevelDRAM, NewMiss: true}
}

// PrefetchAccess performs a software-prefetch access: the same timing and
// fill behaviour as Access, plus prefetch-quality accounting. A prefetch
// that allocates a new L1 fill (or promotion from an outer level) is
// counted as issued and its line tagged for classification at the first
// demand touch; a prefetch to a line already resident or in flight in L1
// is redundant. Prefetches do not train the hardware streamer and never
// classify tags (only demand touches do).
func (h *Hierarchy) PrefetchAccess(addr, now int64) AccessResult {
	res := h.access(addr, now, false)
	if res.NewMiss {
		h.L1.PF.Issued++
		h.L1.markSWPrefetched(LineOf(addr))
	} else {
		h.L1.PF.Redundant++
	}
	return res
}

// PrefetchQuality returns the software-prefetch classification counters
// accumulated so far (tags live in L1, so that is where they count).
func (h *Hierarchy) PrefetchQuality() PrefetchQuality { return h.L1.PF }

// DemandAccess is Access plus the hardware next-line prefetcher: demand
// loads, stores, and atomics go through here; software prefetches use
// Access directly and do not retrain the stream prefetcher.
func (h *Hierarchy) DemandAccess(addr, now int64) AccessResult {
	line := LineOf(addr)
	res := h.Access(addr, now)
	if h.cfg.HWPrefetch && res.Level != LevelL1 {
		h.trainStreamer(line, now)
	}
	return res
}

// trainStreamer records an L1 demand miss. The first miss of a stream
// allocates a tracker predicting the next line; once a miss confirms the
// prediction, the streamer fills PrefetchDegree lines ahead into L2 and
// the next line into L1, re-arming on every subsequent miss of the
// stream. Random misses churn trackers but never prefetch.
func (h *Hierarchy) trainStreamer(line, now int64) {
	for i := range h.streams {
		st := &h.streams[i]
		if st.valid && st.nextLine == line {
			st.nextLine = line + 1
			h.hwFillL1(line+1, now)
			deg := h.cfg.PrefetchDegree
			for d := int64(2); d <= deg; d++ {
				h.hwFillL2(line+d, now)
			}
			return
		}
	}
	h.streams[h.streamPtr] = streamEntry{nextLine: line + 1, valid: true}
	h.streamPtr = (h.streamPtr + 1) % len(h.streams)
}

// hwFillL1 brings line into L1 (the DCU next-line prefetcher),
// consuming memory bandwidth when it has to go to DRAM.
func (h *Hierarchy) hwFillL1(line, now int64) {
	if resident, _ := h.L1.peek(line, now); resident {
		return
	}
	fill := h.sourceFill(line, now)
	h.L1.install(line, fill, now)
	h.HWPrefetches++
}

// hwFillL2 brings line into L2 (the L2 streamer).
func (h *Hierarchy) hwFillL2(line, now int64) {
	if resident, _ := h.L2.peek(line, now); resident {
		return
	}
	fill := h.sourceFill(line, now)
	h.L2.install(line, fill, now)
	h.HWPrefetches++
}

// sourceFill finds or starts a fill for line and returns its ready time,
// installing into the levels between the source and L2.
func (h *Hierarchy) sourceFill(line, now int64) int64 {
	if ra, ok := h.L2.peekReady(line); ok {
		return max(now+h.cfg.L2Lat, ra)
	}
	if ra, ok := h.LLC.peekReady(line); ok {
		return max(now+h.cfg.LLCLat, ra)
	}
	fill := h.MC.Schedule(now + h.cfg.LLCLat)
	h.LLC.install(line, fill, now)
	return fill
}

// DelayFill pushes the in-flight fill of addr's line out to cycle at in
// every level where the line is resident. Fault injection uses it to model
// a prefetch response stuck behind unmodeled traffic: a demand access that
// merges into the fill (or an outer-level promotion sourcing it) observes
// the delayed ready time, while tags, LRU, and prefetch-quality state are
// untouched — the perturbation is timing-only.
func (h *Hierarchy) DelayFill(addr, at int64) {
	line := LineOf(addr)
	h.L1.delayReady(line, at)
	h.L2.delayReady(line, at)
	h.LLC.delayReady(line, at)
}

// WouldMissL1 reports, without changing any cache state, whether an access
// to addr at cycle now would need a new L1 MSHR (i.e. the line is not
// resident in L1 at all — in-flight fills merge into the existing MSHR).
func (h *Hierarchy) WouldMissL1(addr, now int64) bool {
	resident, _ := h.L1.peek(LineOf(addr), now)
	return !resident
}
