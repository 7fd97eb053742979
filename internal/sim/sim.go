// Package sim assembles the full simulated machine: one or more SMT cores
// (internal/cpu) with private L1/L2 caches, a shared last-level cache, and
// a shared memory controller with optional busy-server bandwidth pressure.
// The experiment harness runs every technique variant through a System and
// compares cycle counts.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ghostthread/internal/cache"
	"ghostthread/internal/cpu"
	"ghostthread/internal/fault"
	"ghostthread/internal/gov"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/obs"
)

// Config describes a machine.
type Config struct {
	Cores  int
	CPU    cpu.Config
	Hier   cache.HierarchyConfig
	LLC    cache.Config
	MemCtl mem.ControllerConfig

	// MaxCycles aborts runaway simulations.
	MaxCycles int64

	// CycleStep forces the per-cycle reference loop, disabling the
	// event-skip fast-forward. Results are bit-identical either way (the
	// equivalence tests prove it); this exists so they can keep proving
	// it, and as an escape hatch when bisecting simulator changes.
	CycleStep bool

	// Fault selects deterministic fault injection (see internal/fault).
	// The zero value disables it. Faults perturb timing only: the final
	// memory image and main-thread architectural state are bit-identical
	// to the fault-free run (sim's differential suite proves it).
	Fault fault.Config

	// Shadow enables the dynamic shadow oracle (see cpu/shadow.go): every
	// ghost prefetch is cross-checked against the main context's demand
	// stream and classified in Result.Shadow. Observation only — a
	// shadowed run's Result is bit-identical minus the shadow counters.
	Shadow ShadowConfig

	// Telemetry enables streaming windowed telemetry (see obs.WindowSample
	// and DESIGN.md §14), the simulator's one time-series channel; the
	// event recorder (System.SetTrace) is the other observer. Observation
	// only: a windowed run's Result is bit-identical to the run without
	// telemetry, in both stepping modes.
	Telemetry TelemetryConfig

	// Governor enables the online adaptive ghost governor (internal/gov,
	// DESIGN.md §15). Requires Telemetry — the window stream is the
	// governor's input. Unlike the pure observers above, the governor
	// ACTS: kills, respawns and retunes perturb timing. But its decisions
	// fire only at window-boundary flush cycles and are applied through
	// each core's trigger list, so a governed run is still bit-identical
	// with and without CycleStep and composes with fault schedules and
	// replay.
	Governor gov.Config
}

// TelemetryConfig configures the windowed telemetry stream.
type TelemetryConfig struct {
	// WindowCycles is the window length W; 0 disables telemetry. Every W
	// cycles (and once more at end of run for the partial tail window)
	// each core emits one WindowSample.
	WindowCycles int64

	// GhostCounterAddr is the memory word the ghost publishes its
	// iteration count to (core.Counters.GhostAddr) for the ghost-lead
	// samples; the ghost only publishes when core.SyncParams.Trace is set.
	// 0 leaves the lead series empty.
	GhostCounterAddr int64

	// Sink, when non-nil, receives every sample as it is flushed (live
	// streaming: NDJSON writers, gtmon feeds), in (window, core) order;
	// it is the only way samples leave the simulator. A full
	// window's sample arrives at its boundary cycle (ws.End), so the sink
	// may also read machine state there — memory words, cpu.Core.Sample —
	// on the same schedule in both stepping modes; the figure-10 distance
	// traces and gttrace's timeline do. The end-of-run tail window is
	// partial (ws.End is not a multiple of WindowCycles).
	Sink func(obs.WindowSample)
}

// Enabled reports whether windowed telemetry is on.
func (t TelemetryConfig) Enabled() bool { return t.WindowCycles > 0 }

// ShadowConfig configures the shadow oracle. Each core holds up to
// cpu.DefaultShadowBuffer pending prefetches; one evicted from the full
// buffer before any demand arrives counts as orphaned, not divergent.
type ShadowConfig struct {
	Enabled bool
}

// DefaultConfig returns the single-core idle-server machine.
func DefaultConfig() Config {
	return Config{
		Cores:     1,
		CPU:       cpu.DefaultConfig(),
		Hier:      cache.DefaultHierarchyConfig(),
		LLC:       cache.DefaultLLCConfig(),
		MemCtl:    mem.DefaultControllerConfig(),
		MaxCycles: 2_000_000_000,
	}
}

// BusyConfig returns the busy-server machine: the same core, with
// synthetic bandwidth pressure equivalent to the paper's seven membw
// agents at 3 GB/s each consuming a large share of the channel (§6.3).
func BusyConfig() Config {
	cfg := DefaultConfig()
	// Peak channel bandwidth is 1 line / CyclesPerLine; the pressure
	// agents consume ~55% of it, mirroring 21 GB/s of ~38 GB/s usable,
	// and the loaded DRAM queue raises the unloaded access latency too
	// (the paper: "increasing the CPI and coverage time of loads").
	cfg.MemCtl.PressureLinesPerKCycle = 1000 / cfg.MemCtl.CyclesPerLine * 55 / 100
	cfg.MemCtl.AccessLatency += 100
	return cfg
}

// System is an instantiated machine bound to a Memory.
type System struct {
	cfg   Config
	mem   *mem.Memory
	mc    *mem.Controller
	llc   *cache.Cache
	cores []*cpu.Core

	finishAt []int64
	now      int64

	// next[i] is core i's cached NextEvent, taken right after its last
	// Step (0 = step it on the next machine cycle). A core whose next[i]
	// lies beyond the next machine cycle is lagging: its clock stays
	// behind s.now until it is caught up (see Run).
	next []int64

	// Parking (DESIGN.md §9.5), on multi-core machines unless CycleStep:
	// a parked core's next[i] is math.MaxInt64 until a store to a word it
	// watches, a window flush or the cycle budget unparks it.
	park         bool
	parked       int   // cores parked now
	parkedCycles int64 // core-cycles applied without stepping

	// err is a configuration problem New found; Run returns it before
	// stepping anything.
	err error

	tele   *telemetry
	gov    *gov.Governor
	govLog []gov.Decision
}

// telemetry is the per-run windowed-aggregation state: per-core
// snapshots of the previous flush and the per-core window recorders the
// cores feed. All of it is read and written only at window-boundary
// flushes, between stepped cycles.
type telemetry struct {
	wrec      []*obs.WindowRecorder
	prev      []cpu.Stats        // per-core counter snapshot at the last flush
	flushBuf  []obs.WindowSample // current window's samples (governor input)
	lastFlush int64
	windowIdx int64
}

// New builds the machine over m. An invalid configuration does not
// panic: New records a *ConfigError, which Run returns before stepping.
func New(cfg Config, m *mem.Memory) *System {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	s := &System{
		cfg:      cfg,
		mem:      m,
		mc:       mem.NewController(cfg.MemCtl),
		llc:      cache.New("LLC", cfg.LLC),
		cores:    make([]*cpu.Core, cfg.Cores),
		finishAt: make([]int64, cfg.Cores),
		next:     make([]int64, cfg.Cores),
	}
	for i := range s.cores {
		h := cache.NewHierarchy(cfg.Hier, s.llc, s.mc)
		s.cores[i] = cpu.New(cfg.CPU, h, m)
		s.finishAt[i] = -1 // -1 = not finished; 0 is a valid finish cycle
	}
	if cfg.Cores > 1 && !cfg.CycleStep {
		s.park = true
		for i, c := range s.cores {
			c.SetStoreHook(func(addr int64) { s.wake(i, addr) })
		}
	}
	if cfg.Shadow.Enabled {
		for _, c := range s.cores {
			c.SetShadow(cpu.NewShadow())
		}
	}
	if cfg.Telemetry.Enabled() {
		s.tele = &telemetry{
			wrec: make([]*obs.WindowRecorder, cfg.Cores),
			prev: make([]cpu.Stats, cfg.Cores),
		}
		for i, c := range s.cores {
			s.tele.wrec[i] = obs.NewWindowRecorder()
			c.SetWindowRecorder(s.tele.wrec[i], cfg.Telemetry.GhostCounterAddr)
		}
	}
	if cfg.Fault.Enabled() {
		// Each core gets its own injector (independent per-core schedules);
		// the shared memory controller draws jitter from its own stream.
		for i, c := range s.cores {
			c.SetFault(fault.NewInjector(cfg.Fault, i))
		}
		if cfg.Fault.MemJitterMax > 0 {
			s.mc.SetJitter(cfg.Fault.MemJitterMax, fault.NewStream(cfg.Fault.Seed, fault.SaltMem, 0))
		}
	}
	if cfg.Governor.Enabled {
		if err := cfg.Governor.Validate(); err != nil {
			s.err = &ConfigError{Err: err}
			return s
		}
		if !cfg.Telemetry.Enabled() {
			s.err = &ConfigError{Err: errors.New("governor requires telemetry (the window stream is its input)")}
			return s
		}
		if cfg.Governor.Retune && cfg.Cores > 1 {
			// Each core's controller retunes its own throttle window, but
			// there is one TooFarAddr/CloseAddr pair: the last core to
			// store would win, matching no controller's state.
			s.err = &ConfigError{Err: errors.New("governor Retune needs a single core (one TooFarAddr/CloseAddr pair)")}
			return s
		}
		s.gov = gov.New(cfg.Governor, cfg.Cores)
		if cfg.Governor.MainCounterAddr > 0 {
			// Respawns re-zero core 0's main iteration counter so the
			// fresh ghost's sync segment starts aligned (single-core
			// governed runs; multi-core workloads own distinct counters
			// and forgo the reset).
			s.cores[0].SetGovCounter(cfg.Governor.MainCounterAddr)
		}
		if cfg.Governor.ResyncPC > 0 {
			// PC-synchronized respawn: re-seeds wait for core 0's main
			// thread to dispatch the region-loop header (see
			// cpu.Core.SetGovResync).
			s.cores[0].SetGovResync(cfg.Governor.ResyncPC, gov.MaxRespawns)
		}
	}
	return s
}

// Core returns core i (for loading programs and reading profiles).
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// Cores returns the core count.
func (s *System) Cores() int { return len(s.cores) }

// Load installs a main program (and its helpers) on core i.
func (s *System) Load(i int, main *isa.Program, helpers []*isa.Program) {
	s.cores[i].Load(main, helpers)
	s.finishAt[i] = -1
	s.next[i] = 0
}

// SetTrace attaches an event recorder to core i (nil detaches). Cores
// may share one recorder — events carry the core id, and cores emit in
// index order within each cycle.
func (s *System) SetTrace(i int, r *obs.Recorder) { s.cores[i].SetTrace(r, i) }

// Result summarises a run.
type Result struct {
	Cycles     int64   // cycles until the last core finished
	CoreCycles []int64 // per-core finish cycle

	Committed      int64 // instructions committed, all contexts
	MainCommitted  int64 // instructions committed by context 0 of core 0
	Serializes     int64
	SerializeStall int64 // cycles fetch was stopped behind serializes, all contexts
	Prefetches     int64
	Spawns         int64
	Stores         int64

	LoadLevel     [4]int64 // demand loads satisfied per cache level
	PrefetchLevel [4]int64

	L1Hits, L1Misses   int64
	L2Hits, L2Misses   int64
	LLCHits, LLCMisses int64
	DRAMTransfers      int64

	FrontendStalls int64

	// Prefetch classifies the software prefetches by outcome, summed over
	// cores (see cache.PrefetchQuality for the taxonomy).
	Prefetch cache.PrefetchQuality

	// Fault counts the faults actually injected, summed over cores (zero
	// when injection is off; see fault.Stats).
	Fault fault.Stats

	// Shadow classifies ghost prefetches against the main demand stream,
	// summed over cores (zero when Config.Shadow is off; see
	// cpu.ShadowStats). Divergent must be zero for a sound p-slice.
	Shadow cpu.ShadowStats

	// GovDecisions is the governor's decision log (empty when
	// Config.Governor is off), in (window, core) order. Deterministic:
	// identical across stepping modes and under replay.
	GovDecisions []gov.Decision

	// GovKills/GovRespawns count applied governor ghost retirements and
	// re-spawns, summed over cores.
	GovKills    int64
	GovRespawns int64
}

// PrefetchAccuracy is the fraction of executed software prefetches a
// demand access consumed.
func (r *Result) PrefetchAccuracy() float64 { return r.Prefetch.Accuracy() }

// PrefetchTimeliness is the fraction of useful prefetches whose fill had
// fully landed before the demand access.
func (r *Result) PrefetchTimeliness() float64 { return r.Prefetch.Timeliness() }

// PrefetchCoverage is the fraction of beyond-L1 demand traffic the
// software prefetches absorbed: useful / (useful + demand accesses that
// still had to leave L1).
func (r *Result) PrefetchCoverage() float64 {
	missed := r.LoadLevel[1] + r.LoadLevel[2] + r.LoadLevel[3]
	useful := r.Prefetch.Useful()
	if useful+missed == 0 {
		return 0
	}
	return float64(useful) / float64(useful+missed)
}

// BudgetError reports that a run exceeded its Config.MaxCycles cycle
// budget. The harness watchdog matches it with errors.As so a runaway
// workload becomes a typed timeout row instead of an opaque failure.
type BudgetError struct {
	Limit int64 // the MaxCycles budget that was exhausted
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: exceeded cycle budget of %d cycles", e.Limit)
}

// ConfigError reports an invalid machine configuration: a governor whose
// own config fails validation, a governor without the telemetry stream
// it reads, or a retuning governor on a multi-core machine. New records it and Run returns it before stepping, so
// a bad sweep cell becomes an error row instead of a panic.
type ConfigError struct {
	Err error
}

func (e *ConfigError) Error() string { return "sim: invalid config: " + e.Err.Error() }

func (e *ConfigError) Unwrap() error { return e.Err }

// Run simulates until every core is done, returning aggregate statistics.
// Each stepped machine cycle steps the unfinished cores that have work
// in index order, so the shared LLC, memory controller and memory image
// see all of core 0's accesses, then all of core 1's, and so on.
//
// Unless cfg.CycleStep is set, a core is stepped only once its cached
// next event (next[i]) is due; in between it lags behind the machine
// clock, which is safe because a core inside its NextEvent span
// dispatches nothing and so touches no shared state. A lagging core is
// caught up (SkipTo) just before its next Step and before every window
// flush, and skipAhead jumps the machine clock over spans in which no
// core has work. On a multi-core machine a core whose timing state
// recurs is parked instead (cpu.Core.Probe, DESIGN.md §9.5) and
// unparked before anything could see the difference. The Result is
// bit-identical either way.
func (s *System) Run() (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	windowAt := s.cfg.Telemetry.WindowCycles
	for {
		allDone := true
		for i, c := range s.cores {
			if c.Done() {
				if s.finishAt[i] < 0 {
					s.finishAt[i] = c.Now()
				}
				continue
			}
			allDone = false
			if s.next[i] > s.now+1 {
				continue
			}
			c.SkipTo(s.now)
			c.Step()
			switch {
			case s.cfg.CycleStep:
			case s.park && c.Probe():
				s.next[i] = math.MaxInt64
				s.parked++
			default:
				s.next[i] = c.NextEvent()
			}
		}
		s.now++
		if windowAt > 0 && s.now%windowAt == 0 {
			s.catchUp()
			s.flushWindows()
			if !s.cfg.CycleStep {
				// Governor decisions push triggers at now+1.
				for i, c := range s.cores {
					s.next[i] = c.NextEvent()
				}
			}
		}
		if allDone {
			break
		}
		if s.now >= s.cfg.MaxCycles {
			s.catchUp()
			return Result{}, &BudgetError{Limit: s.cfg.MaxCycles}
		}
		if !s.cfg.CycleStep {
			s.skipAhead()
		}
	}
	return s.collect()
}

// catchUp brings every lagging or parked core's clock up to the machine
// clock, so that core state read between stepped cycles (Stats,
// PCProfile, Sample, a sink's reads) and events stamped at Now()+1 match
// the per-cycle loop.
func (s *System) catchUp() {
	for i, c := range s.cores {
		switch {
		case c.Parked():
			s.unpark(i, s.now)
		case !c.Done():
			c.SkipTo(s.now)
		}
	}
}

// wake runs just before core w's store or atomic lands on addr, at the
// machine cycle being stepped. A parked core whose period loads addr is
// brought up to the cycle it would have reached in the per-cycle loop by
// then: through this cycle if its index is below w's (it stepped before
// the writer), through the previous one otherwise (it steps after the
// writer, and sees the store).
func (s *System) wake(w int, addr int64) {
	if s.parked == 0 {
		return
	}
	at := s.cores[w].Now()
	for i, c := range s.cores {
		if i == w || !c.Parked() || !c.Watches(addr) {
			continue
		}
		if i < w {
			s.unpark(i, at)
		} else {
			s.unpark(i, at-1)
		}
	}
}

// unpark brings parked core i up to cycle target and resumes stepping it.
func (s *System) unpark(i int, target int64) {
	c := s.cores[i]
	s.parkedCycles += c.Unpark(target)
	s.parked--
	s.next[i] = c.NextEvent()
}

// ParkedCycles returns the core-cycles Run applied to parked cores
// without stepping them (DESIGN.md §9.5); always 0 on single-core
// machines and under CycleStep.
func (s *System) ParkedCycles() int64 { return s.parkedCycles }

// flushWindows closes the telemetry window ending at the current cycle:
// for each core, in index order, it diffs the core's counters against
// the previous flush's snapshot, drains the core's WindowRecorder, and
// emits one WindowSample. It runs only at window boundaries, which the
// skipper is capped below, and only once every unfinished core has been
// caught up to the boundary (catchUp), so the sample stream is
// bit-identical across stepping modes and observation never perturbs the
// simulation (reads only; the cores never see the aggregation state).
//
// When the governor is attached, the window's samples are staged, judged
// (gov.Governor.Step annotates them with the decisions taken), and the
// decisions applied — kills and respawns through each core's trigger
// list for the next stepped cycle, retunes as direct stores to the
// governor-owned sync words — before the annotated samples are appended
// and sunk. Decisions therefore land at window-boundary cycles only,
// which both stepping modes step on, preserving bit-identity.
func (s *System) flushWindows() {
	t := s.tele
	start, end := t.lastFlush, s.now
	if end <= start {
		return
	}
	t.flushBuf = t.flushBuf[:0]
	for i, c := range s.cores {
		st := c.Stats()
		prev := &t.prev[i]
		ws := obs.WindowSample{
			Window:    t.windowIdx,
			Core:      i,
			Start:     start,
			End:       end,
			Committed: st.Committed[0] - prev.Committed[0],
		}
		dur := end - start
		ws.IPC = float64(ws.Committed) / float64(dur)
		ws.SerializeStall = (st.SerializeStall[0] - prev.SerializeStall[0]) +
			(st.SerializeStall[1] - prev.SerializeStall[1])
		// Two hardware contexts share the core, so the stall budget per
		// window is 2×dur cycles.
		ws.SerializeStallFrac = float64(ws.SerializeStall) / float64(2*dur)
		ws.Prefetch = st.Prefetch.Sub(prev.Prefetch)
		for l := 1; l < 4; l++ {
			ws.DemandBeyondL1 += st.LoadLevel[l] - prev.LoadLevel[l]
		}
		if total := ws.Prefetch.Issued + ws.Prefetch.Redundant; total > 0 {
			ws.PFAccuracy = float64(ws.Prefetch.Useful()) / float64(total)
		}
		if useful := ws.Prefetch.Useful(); useful > 0 {
			ws.PFCoverage = float64(useful) / float64(useful+ws.DemandBeyondL1)
			ws.PFTimeliness = float64(ws.Prefetch.Timely) / float64(useful)
		}
		t.wrec[i].Drain(&ws)
		ws.LQ = c.Sample().LQ[0]
		ws.HelperActive = c.HelperActive()
		// PC-synchronized re-seeds fire between decision points; surface
		// them so the governor re-judges the fresh ghost from scratch.
		ws.GovRespawned = st.GovRespawns > prev.GovRespawns

		*prev = st
		t.flushBuf = append(t.flushBuf, ws)
	}
	if s.gov != nil {
		s.governWindow()
	}
	if sink := s.cfg.Telemetry.Sink; sink != nil {
		for _, ws := range t.flushBuf {
			sink(ws)
		}
	}
	t.lastFlush = end
	t.windowIdx++
}

// governWindow feeds the just-closed window's samples to the governor
// and applies its decisions. Kills and respawns are scheduled on each
// core's trigger list (they fire at the next stepped cycle, exactly like
// the fault injector's triggers); retunes store the new throttle window
// into the governor-owned sync words, which the dynamic sync segment
// reads on its next check. All of it runs between stepped cycles, at the
// same cycle in both stepping modes.
func (s *System) governWindow() {
	t := s.tele
	refs := make([]*obs.WindowSample, len(t.flushBuf))
	for i := range t.flushBuf {
		refs[i] = &t.flushBuf[i]
	}
	decisions := s.gov.Step(t.windowIdx, s.now, refs)
	for _, d := range decisions {
		c := s.cores[d.Core]
		switch d.Action {
		case gov.ActionKill:
			if !c.Done() {
				c.ScheduleGovKill()
			}
		case gov.ActionRespawn:
			if !c.Done() {
				c.ScheduleGovRespawn()
			}
		case gov.ActionRetune:
			s.mem.StoreWord(s.cfg.Governor.TooFarAddr, d.TooFar)
			s.mem.StoreWord(s.cfg.Governor.CloseAddr, d.Close)
		}
	}
	s.govLog = append(s.govLog, decisions...)
}

// collect gathers the aggregate Result after the main loop finishes.
func (s *System) collect() (Result, error) {
	if s.tele != nil {
		// Close the partial tail window [lastFlush, now). Both stepping
		// modes exit with the same s.now, so the tail sample is identical
		// across modes; flushWindows no-ops when the run ended exactly on
		// a window boundary.
		s.flushWindows()
	}
	var res Result
	res.CoreCycles = make([]int64, len(s.cores))
	for i, c := range s.cores {
		if err := c.Err(); err != nil {
			return Result{}, err
		}
		fin := s.finishAt[i]
		if fin < 0 {
			fin = c.Now()
		}
		res.CoreCycles[i] = fin
		if fin > res.Cycles {
			res.Cycles = fin
		}
		res.Committed += c.Committed(0) + c.Committed(1)
		res.Serializes += c.Serializes(0) + c.Serializes(1)
		res.SerializeStall += c.SerializeStall(0) + c.SerializeStall(1)
		res.FrontendStalls += c.FrontendStalls(0) + c.FrontendStalls(1)
		res.Prefetches += c.Prefetches
		res.Spawns += c.Spawns
		res.Stores += c.Stores
		for l := 0; l < 4; l++ {
			res.LoadLevel[l] += c.LoadLevel[l]
			res.PrefetchLevel[l] += c.PrefetchLevel[l]
		}
		res.Fault.Add(c.FaultStats())
		res.Shadow.Add(c.ShadowStats())
		res.GovKills += c.GovKills
		res.GovRespawns += c.GovRespawns
	}
	res.MainCommitted = s.cores[0].Committed(0)
	for _, c := range s.cores {
		h := c.Hier()
		res.L1Hits += h.L1.Hits + h.L1.InFlightHits
		res.L1Misses += h.L1.Misses
		res.L2Hits += h.L2.Hits + h.L2.InFlightHits
		res.L2Misses += h.L2.Misses
		res.Prefetch.Add(h.PrefetchQuality())
	}
	res.LLCHits = s.llc.Hits + s.llc.InFlightHits
	res.LLCMisses = s.llc.Misses
	res.DRAMTransfers = s.mc.Transfers
	res.GovDecisions = s.govLog
	return res, nil
}

// skipAhead advances the machine clock to just before the earliest
// cached next event across cores, min(next)-1. It moves no core: each
// lagging core accrues its skipped cycles' stall statistics through
// SkipTo when it is caught up. The target is capped below the next
// telemetry window boundary (so windows flush on exactly the per-cycle
// schedule) and below MaxCycles (so the runaway guard trips at the same
// cycle as the reference loop). When every unfinished core is parked,
// only those caps remain: nothing can wake a core before them.
//
// The memory controller needs no entry in the next-event computation: it
// only acts when a core sends it an access, and its pressure schedule is
// a pure function of the slot index (see mem.Controller.pressureBusy), so
// skipping over a span changes nothing about which slots the background
// traffic occupies.
func (s *System) skipAhead() {
	next := slices.Min(s.next)
	if next == math.MaxInt64 && s.parked == 0 {
		return // every core is done
	}
	target := next - 1
	if w := s.cfg.Telemetry.WindowCycles; w > 0 {
		// Step onto every window boundary so flushes happen at exactly
		// the per-cycle schedule.
		boundary := s.now - s.now%w + w
		target = min(target, boundary-1)
	}
	target = min(target, s.cfg.MaxCycles-1)
	if target > s.now {
		s.now = target
	}
}

// RunProgram is the single-core convenience path: build a machine with
// cfg over m, run main (with helpers) on core 0, and return the result.
func RunProgram(cfg Config, m *mem.Memory, main *isa.Program, helpers []*isa.Program) (Result, error) {
	s := New(cfg, m)
	s.Load(0, main, helpers)
	return s.Run()
}
