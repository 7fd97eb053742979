// Package fault is the deterministic fault-injection subsystem: it
// perturbs the *timing* of a simulated run the way a real, noisy system
// would — ghost threads get preempted by the OS, spawned late, or killed;
// prefetch responses arrive late or never; DRAM latency jitters; the main
// thread's published sync counter becomes visible to the ghost with a
// delay — while leaving architectural results untouched. That invariant
// is what makes ghost threading deployable on real systems: helpers are
// pure observers (the ghost-safety verifier proves they never store to
// application state), so any fault schedule may change *when* things
// happen but never *what* is computed. The differential suite in
// internal/sim proves it bit-for-bit.
//
// Every fault kind draws from its own seeded splitmix64 stream, so a
// schedule is exactly reproducible from (Config, core id) alone and
// independent of which other kinds are enabled. Faults that need a future
// trigger (preemption windows, the one-shot kill) become entries on the
// core's trigger list — never per-cycle polling — so injection composes
// with the event-skip fast path: a faulted run is bit-identical between
// per-cycle stepping and event skipping.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Config selects and parameterises the fault kinds. The zero value
// disables everything. All fields are plain comparable data so the
// harness's profile memo can key on it.
type Config struct {
	// Seed is the master seed every per-kind stream derives from.
	Seed uint64

	// PreemptInterval enables ghost-thread preemption windows: the gap
	// between consecutive windows is drawn uniformly from
	// [1, 2*PreemptInterval], so this is the mean spacing. A window
	// emulates the OS context-switching the sibling SMT context away:
	// the helper context fetches nothing for the window's duration
	// (in-flight instructions drain, as on a real deschedule). 0 = off.
	PreemptInterval int64
	// PreemptLen is the mean window length; each window's length is drawn
	// uniformly from [1, 2*PreemptLen]. Must be positive when
	// PreemptInterval is.
	PreemptLen int64

	// GhostKillAt, when positive, kills the live helper context at that
	// cycle (one-shot, per core) exactly as a join would: the OS never
	// rescheduled the ghost. A cycle with no live helper kills nothing.
	GhostKillAt int64

	// SpawnDelayMax adds a uniform [0, SpawnDelayMax] delay to every
	// helper activation on top of SpawnCostHelper (late spawn: the
	// paper's §4.2.2 system call taking "thousands of cycles" on a
	// loaded machine). 0 = off.
	SpawnDelayMax int64

	// DropPrefetchPerMille drops that fraction (‰) of software prefetches
	// at issue: the instruction retires but no fill is started.
	DropPrefetchPerMille int64
	// DelayPrefetchPerMille delays that fraction (‰) of software-prefetch
	// fills by a uniform [1, DelayPrefetchMax] extra cycles (a response
	// stuck behind unmodeled traffic). Drop is decided first; a prefetch
	// is never both.
	DelayPrefetchPerMille int64
	// DelayPrefetchMax is the maximum extra fill latency. Must be
	// positive when DelayPrefetchPerMille is.
	DelayPrefetchMax int64

	// MemJitterMax adds a uniform [0, MemJitterMax] extra cycles to every
	// DRAM transfer's access latency (row-buffer state, refresh, and
	// scheduling noise the fixed-latency model abstracts away). 0 = off.
	MemJitterMax int64

	// StaleSyncPerMille makes that fraction (‰) of the ghost's
	// sync-counter reads observe a stale value: the main thread's counter
	// store is visible with a lag of uniform [1, StaleSyncLag]
	// iterations (clamped at 0, since the counter starts there). Only
	// loads flagged as sync checks on the helper context are affected —
	// the value feeds the ghost's throttle decision and nothing else, so
	// this too is timing-only.
	StaleSyncPerMille int64
	// StaleSyncLag is the maximum visibility lag in iterations. Must be
	// positive when StaleSyncPerMille is.
	StaleSyncLag int64
}

// Enabled reports whether any fault kind is active.
func (c Config) Enabled() bool {
	return c.PreemptInterval > 0 || c.GhostKillAt > 0 || c.SpawnDelayMax > 0 ||
		c.DropPrefetchPerMille > 0 || c.DelayPrefetchPerMille > 0 ||
		c.MemJitterMax > 0 || c.StaleSyncPerMille > 0
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	neg := func(name string, v int64) error {
		return fmt.Errorf("fault: %s must be non-negative, got %d", name, v)
	}
	switch {
	case c.PreemptInterval < 0:
		return neg("PreemptInterval", c.PreemptInterval)
	case c.PreemptLen < 0:
		return neg("PreemptLen", c.PreemptLen)
	case c.GhostKillAt < 0:
		return neg("GhostKillAt", c.GhostKillAt)
	case c.SpawnDelayMax < 0:
		return neg("SpawnDelayMax", c.SpawnDelayMax)
	case c.DelayPrefetchMax < 0:
		return neg("DelayPrefetchMax", c.DelayPrefetchMax)
	case c.MemJitterMax < 0:
		return neg("MemJitterMax", c.MemJitterMax)
	case c.StaleSyncLag < 0:
		return neg("StaleSyncLag", c.StaleSyncLag)
	}
	for _, pm := range []struct {
		name string
		v    int64
	}{
		{"DropPrefetchPerMille", c.DropPrefetchPerMille},
		{"DelayPrefetchPerMille", c.DelayPrefetchPerMille},
		{"StaleSyncPerMille", c.StaleSyncPerMille},
	} {
		if pm.v < 0 || pm.v > 1000 {
			return fmt.Errorf("fault: %s must be in [0,1000] per-mille, got %d", pm.name, pm.v)
		}
	}
	if c.DropPrefetchPerMille+c.DelayPrefetchPerMille > 1000 {
		return fmt.Errorf("fault: DropPrefetchPerMille+DelayPrefetchPerMille exceed 1000‰")
	}
	if c.PreemptInterval > 0 && c.PreemptLen <= 0 {
		return fmt.Errorf("fault: PreemptInterval set but PreemptLen is %d (must be positive)", c.PreemptLen)
	}
	if c.DelayPrefetchPerMille > 0 && c.DelayPrefetchMax <= 0 {
		return fmt.Errorf("fault: DelayPrefetchPerMille set but DelayPrefetchMax is %d (must be positive)", c.DelayPrefetchMax)
	}
	if c.StaleSyncPerMille > 0 && c.StaleSyncLag <= 0 {
		return fmt.Errorf("fault: StaleSyncPerMille set but StaleSyncLag is %d (must be positive)", c.StaleSyncLag)
	}
	return nil
}

// specFields maps spec keys to Config fields, in the canonical render
// order. One table drives ParseSpec, String, and the key list in errors.
var specFields = []struct {
	key string
	get func(*Config) *int64
}{
	{"preempt", func(c *Config) *int64 { return &c.PreemptInterval }},
	{"plen", func(c *Config) *int64 { return &c.PreemptLen }},
	{"kill", func(c *Config) *int64 { return &c.GhostKillAt }},
	{"spawndelay", func(c *Config) *int64 { return &c.SpawnDelayMax }},
	{"droppf", func(c *Config) *int64 { return &c.DropPrefetchPerMille }},
	{"delaypf", func(c *Config) *int64 { return &c.DelayPrefetchPerMille }},
	{"delaymax", func(c *Config) *int64 { return &c.DelayPrefetchMax }},
	{"jitter", func(c *Config) *int64 { return &c.MemJitterMax }},
	{"stale", func(c *Config) *int64 { return &c.StaleSyncPerMille }},
	{"stalelag", func(c *Config) *int64 { return &c.StaleSyncLag }},
}

// ParseSpec parses a compact comma-separated key=value fault spec, e.g.
//
//	seed=1,preempt=20000,plen=4000,jitter=100
//
// Keys: seed, preempt, plen, kill, spawndelay, droppf, delaypf, delaymax,
// jitter, stale, stalelag (the ‰ keys take 0-1000). The result is
// validated.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: spec entry %q is not key=value", part)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if k == "seed" {
			seed, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			c.Seed = seed
			continue
		}
		n, err := strconv.ParseInt(v, 0, 64)
		if err != nil {
			return Config{}, fmt.Errorf("fault: bad value %q for %s: %v", v, k, err)
		}
		found := false
		for _, f := range specFields {
			if f.key == k {
				*f.get(&c) = n
				found = true
				break
			}
		}
		if !found {
			return Config{}, fmt.Errorf("fault: unknown spec key %q (known: seed, %s)", k, specKeys())
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func specKeys() string {
	keys := make([]string, len(specFields))
	for i, f := range specFields {
		keys[i] = f.key
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// String renders the canonical spec (ParseSpec round-trips it). The zero
// config renders as "off".
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	for _, f := range specFields {
		if v := *f.get(&c); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.key, v))
		}
	}
	return strings.Join(parts, ",")
}

// Stream is a splitmix64 PRNG. It is a value type so holders can snapshot
// and restore it (the memory controller re-arms its jitter stream on
// Reset).
type Stream struct{ state uint64 }

// Per-kind stream salts: each fault kind consumes its own sequence so a
// schedule never shifts when an unrelated kind is toggled.
const (
	SaltPreempt  uint64 = 0xA5A5_0001
	SaltSpawn    uint64 = 0xA5A5_0002
	SaltPrefetch uint64 = 0xA5A5_0003
	SaltStale    uint64 = 0xA5A5_0004
	SaltMem      uint64 = 0xA5A5_0005
)

// NewStream derives a stream from the master seed, a per-kind salt, and a
// core id (so multi-core runs draw independent schedules per core).
func NewStream(seed, salt uint64, coreID int) Stream {
	s := Stream{state: seed ^ salt*0x9E3779B97F4A7C15 ^ uint64(coreID)*0xD1342543DE82EF95}
	// Warm up so nearby seeds diverge immediately.
	s.Next()
	s.Next()
	return s
}

// Next returns the next 64 pseudo-random bits.
func (s *Stream) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a draw in [0, n); n <= 0 yields 0.
func (s *Stream) Intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.Next() % uint64(n))
}

// Stats counts the faults one run actually injected. Counters are
// observational: the timing effects are already in the run's cycle
// counts, so two runs of one schedule report identical Stats.
type Stats struct {
	Preemptions       int64 `json:"preemptions,omitempty"`
	PreemptedCycles   int64 `json:"preempted_cycles,omitempty"`
	Kills             int64 `json:"kills,omitempty"`
	SpawnDelayCycles  int64 `json:"spawn_delay_cycles,omitempty"`
	DroppedPrefetches int64 `json:"dropped_prefetches,omitempty"`
	DelayedPrefetches int64 `json:"delayed_prefetches,omitempty"`
	StaleReads        int64 `json:"stale_reads,omitempty"`
}

// Add folds o into s (per-core stats summing up to a system total).
func (s *Stats) Add(o Stats) {
	s.Preemptions += o.Preemptions
	s.PreemptedCycles += o.PreemptedCycles
	s.Kills += o.Kills
	s.SpawnDelayCycles += o.SpawnDelayCycles
	s.DroppedPrefetches += o.DroppedPrefetches
	s.DelayedPrefetches += o.DelayedPrefetches
	s.StaleReads += o.StaleReads
}

// Zero reports whether no fault fired.
func (s Stats) Zero() bool { return s == Stats{} }

// Injector is one core's fault scheduler. It owns the per-kind streams
// and the injection counters; the cpu.Core consults it at the five
// injection points (preemption events, kill event, spawn, prefetch issue,
// sync-counter load). Not safe for concurrent use — a core is
// single-threaded within a run.
type Injector struct {
	cfg Config

	preempt  Stream
	spawn    Stream
	prefetch Stream
	stale    Stream

	Stats Stats
}

// NewInjector builds the injector for one core. The configuration must
// have passed Validate.
func NewInjector(cfg Config, coreID int) *Injector {
	return &Injector{
		cfg:      cfg,
		preempt:  NewStream(cfg.Seed, SaltPreempt, coreID),
		spawn:    NewStream(cfg.Seed, SaltSpawn, coreID),
		prefetch: NewStream(cfg.Seed, SaltPrefetch, coreID),
		stale:    NewStream(cfg.Seed, SaltStale, coreID),
	}
}

// Config returns the injector's configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// NextPreemptGap draws the gap until the next preemption window starts,
// or -1 when preemption is off.
func (inj *Injector) NextPreemptGap() int64 {
	if inj.cfg.PreemptInterval <= 0 {
		return -1
	}
	return 1 + inj.preempt.Intn(2*inj.cfg.PreemptInterval)
}

// PreemptWindow draws one preemption window's length. The draw is
// consumed whether or not a helper is live, so the schedule depends only
// on the seed.
func (inj *Injector) PreemptWindow() int64 {
	return 1 + inj.preempt.Intn(2*inj.cfg.PreemptLen)
}

// SpawnDelay draws the extra helper-activation latency for one spawn.
func (inj *Injector) SpawnDelay() int64 {
	if inj.cfg.SpawnDelayMax <= 0 {
		return 0
	}
	d := inj.spawn.Intn(inj.cfg.SpawnDelayMax + 1)
	inj.Stats.SpawnDelayCycles += d
	return d
}

// PrefetchFate decides one issued software prefetch's fate: dropped
// entirely, delayed by the returned extra fill latency, or untouched.
func (inj *Injector) PrefetchFate() (drop bool, delay int64) {
	if inj.cfg.DropPrefetchPerMille <= 0 && inj.cfg.DelayPrefetchPerMille <= 0 {
		return false, 0
	}
	r := inj.prefetch.Intn(1000)
	switch {
	case r < inj.cfg.DropPrefetchPerMille:
		inj.Stats.DroppedPrefetches++
		return true, 0
	case r < inj.cfg.DropPrefetchPerMille+inj.cfg.DelayPrefetchPerMille:
		inj.Stats.DelayedPrefetches++
		return false, 1 + inj.prefetch.Intn(inj.cfg.DelayPrefetchMax)
	}
	return false, 0
}

// StaleValue filters one ghost sync-counter read: with probability
// StaleSyncPerMille the ghost observes the counter as it was up to
// StaleSyncLag iterations earlier (clamped at 0 — the counter's initial
// value). The returned value only steers the ghost's throttle state
// machine, so architectural results are untouched.
func (inj *Injector) StaleValue(v int64) int64 {
	if inj.cfg.StaleSyncPerMille <= 0 {
		return v
	}
	if inj.stale.Intn(1000) >= inj.cfg.StaleSyncPerMille {
		return v
	}
	inj.Stats.StaleReads++
	v -= 1 + inj.stale.Intn(inj.cfg.StaleSyncLag)
	if v < 0 {
		v = 0
	}
	return v
}
