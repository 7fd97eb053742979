// Package gov is the online adaptive ghost governor: a per-core
// controller that consumes the streaming windowed telemetry
// (obs.WindowSample) at window boundaries and decides — deterministically
// and replayably — whether each core's ghost thread is still earning its
// keep.
//
// The governor exists because static ghost configuration is fragile in
// exactly the ways the paper warns about: a p-slice tuned for one phase
// goes stale when the workload changes shape (bfs.kron's per-level
// frontier), and a compiler-extracted slice can carry live-ins the main
// thread recomputes after spawn, leaving a ghost that prefetches garbage
// while charging the core its serialize-throttle overhead. Measured on
// this simulator, such a ghost is not merely useless but harmful (the
// bfs.kron −7.5% regression EXPERIMENTS.md documents).
//
// Three verbs, all applied through the simulator's deterministic event
// machinery (see DESIGN.md §15):
//
//   - kill: a ghost whose windowed realized-benefit estimate stays
//     negative for KillAfter consecutive post-warmup windows is retired
//     via the core's trigger list (cpu.Core.ScheduleGovKill), exactly the
//     mechanism the fault injector's one-shot kill uses.
//
//   - respawn: after RevivePeriod windows of sitting killed, the ghost
//     is re-spawned with the main context's CURRENT registers
//     (cpu.Core.ScheduleGovRespawn), giving a stale slice fresh
//     live-ins.
//
//   - retune: when the dynamic sync segment is in play
//     (core.SyncParams.Dynamic), the TooFar/Close throttle window is
//     re-published through governor-owned memory words — narrowed when
//     the ghost runs far ahead fetching garbage.
//
// DESIGN.md §15.1 records what each rule is worth: the governed cycles
// with it switched off, rule by rule.
//
// Decisions are pure functions of the sample stream, which is itself
// bit-identical across per-cycle, event-skip, serial and parallel
// stepping — so a governed run replays exactly, decision log included.
package gov

import (
	"fmt"

	"ghostthread/internal/obs"
)

// The controller's fixed thresholds. Every governed run in the repo
// uses these values; none is a knob.
const (
	// KillAfter is how many consecutive negative-benefit windows (after
	// warmup) retire the ghost.
	KillAfter = 3
	// Warmup is how many windows after a (re)spawn are exempt from
	// benefit judgement: a freshly spawned ghost has not yet issued
	// anything.
	Warmup = 2
	// MaxRespawns caps governor-initiated respawns per core, so an
	// aggressive RevivePeriod cannot turn into a spawn storm. The
	// core-side PC-synchronized trigger enforces the same bound on its
	// autonomous re-seeds.
	MaxRespawns = 32
	// MinPF is the minimum prefetch sample (issued + redundant) in a
	// window before its accuracy is trusted for a judgement.
	MinPF = 8
	// RetuneCooldown is the number of windows between retunes of one
	// core, so a new throttle window takes effect before it is judged.
	RetuneCooldown = 4
	// MinTooFar is the floor of the retuned throttle window (a retune
	// only ever halves it).
	MinTooFar = 8
)

// Config selects and tunes the governor. The zero value disables it.
// All fields are scalars: the struct is comparable, which the harness
// profile-cache key (and its reflection test) depends on.
type Config struct {
	// Enabled turns the governor on. A governed run requires windowed
	// telemetry (sim.Config.Telemetry) — the sample stream IS the
	// governor's input.
	Enabled bool

	// RevivePeriod, when > 0, re-spawns a killed ghost after that many
	// windows (a second chance with fresh live-ins). 0 leaves a killed
	// ghost dead.
	RevivePeriod int64

	// ResyncPC, when > 0, synchronizes respawns to the main thread's
	// dispatch of this PC — the rewritten main's region-loop header
	// (slice.Result.ResyncPC). A respawn decision then only ARMS the
	// core (cpu.Core.SetGovResync); the re-seed itself fires at the next
	// header crossing, the one point where main's loop-carried registers
	// are valid ghost entry state. Arming is sticky: every subsequent
	// crossing refreshes the ghost with that phase's live-ins, bounded
	// by MaxRespawns. 0 re-seeds immediately at the event (manual ghosts
	// whose live-ins never go stale).
	ResyncPC int64

	// Retune enables dynamic TooFar/Close re-publication. Requires
	// TooFarAddr/CloseAddr (the governor-owned memory words an opt-in
	// dynamic sync segment loads its thresholds from) and their initial
	// values.
	Retune     bool
	TooFarAddr int64
	CloseAddr  int64
	TooFarInit int64
	CloseInit  int64

	// MainCounterAddr is core 0's main-thread iteration-counter word
	// (core.Counters.MainAddr); a respawn re-zeroes it so the fresh
	// ghost's local count re-aligns with the main thread's restart
	// (mirroring the spawn prologue's own Store-0). 0 skips the reset.
	MainCounterAddr int64
}

// Default returns the standard governed configuration (kill only: no
// revival unless RevivePeriod is set, and no retune — retuning
// additionally needs the dynamic sync words, see TooFarAddr).
func Default() Config {
	return Config{Enabled: true}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Retune && (c.TooFarAddr <= 0 || c.CloseAddr <= 0) {
		return fmt.Errorf("gov: Retune requires TooFarAddr and CloseAddr")
	}
	if c.Retune && (c.TooFarInit <= 0 || c.CloseInit <= 0) {
		return fmt.Errorf("gov: Retune requires TooFarInit and CloseInit")
	}
	if c.RevivePeriod < 0 {
		return fmt.Errorf("gov: negative RevivePeriod")
	}
	return nil
}

// Decision actions.
const (
	ActionKill    = "kill"
	ActionRespawn = "respawn"
	ActionRetune  = "retune"
)

// Decision is one governor verdict, JSON-tagged for the NDJSON decision
// log (gtrun -govern, ghostbench -experiment governor). The log is part
// of the deterministic surface: identical across stepping modes and
// replays.
type Decision struct {
	Window int64  `json:"window"`
	Cycle  int64  `json:"cycle"`
	Core   int    `json:"core"`
	Action string `json:"action"`
	Reason string `json:"reason"`
	// TooFar/Close carry the retuned throttle window (retune only).
	TooFar int64 `json:"too_far,omitempty"`
	Close  int64 `json:"close,omitempty"`
}

// coreState is the governor's per-core controller state.
type coreState struct {
	windows   int   // post-(re)spawn windows observed (warmup gate)
	negStreak int   // consecutive negative-benefit windows
	killed    bool  // governor killed the ghost and it has not respawned
	killedAt  int64 // window index of the kill (RevivePeriod base)
	respawns  int
	cooldown  int // retune cooldown countdown
	tooFar    int64
	close     int64
}

// Governor holds the per-core controller state. Create with New, feed
// with Step once per closed window.
type Governor struct {
	cfg   Config
	cores []coreState
}

// New builds a governor for a machine with the given core count. The
// config must already satisfy Validate.
func New(cfg Config, cores int) *Governor {
	g := &Governor{cfg: cfg, cores: make([]coreState, cores)}
	for i := range g.cores {
		g.cores[i].tooFar = cfg.TooFarInit
		g.cores[i].close = cfg.CloseInit
	}
	return g
}

// negative is the windowed realized-benefit estimate, inverted: it
// reports that the ghost demonstrably hurt this window. Calibrated
// against the repo's workload suite so that camel's manual ghost
// (accuracy ≈ 0.22 but perfectly timely), kangaroo's compiler ghost
// (accuracy ≈ 0.95) and camel's compiler ghost survive, while bfs.kron's
// and hj's stale compiler ghosts are condemned:
//
//   - garbage: a meaningful prefetch sample whose accuracy is under 10%
//     — the slice's address stream has diverged from the demand stream.
//   - wasted: most of the ghost's prefetches hit lines already cached or
//     in flight (redundant > issued) AND essentially none land early
//     enough to hide latency — the tail of bfs.kron's frontier, where a
//     per-phase slice degenerates into re-touching the main thread's
//     footprint at zero lead. A redundant-heavy but TIMELY window (a
//     fresh ghost sprinting through a region main has partially warmed)
//     is exempt.
//
// A window with fewer than MinPF prefetches is never negative: too
// small a sample to judge.
func (g *Governor) negative(ws *obs.WindowSample) (bool, string) {
	if ws.Prefetch.Issued+ws.Prefetch.Redundant < MinPF {
		return false, ""
	}
	if ws.PFAccuracy < 0.10 {
		return true, "garbage"
	}
	if ws.Prefetch.Redundant > ws.Prefetch.Issued && ws.PFTimeliness < 0.10 {
		return true, "wasted"
	}
	return false, ""
}

// Step judges one closed window: samples holds the window's per-core
// WindowSamples (HelperActive already set by the simulator), cycle the
// flush cycle. It returns the decisions to apply, in core order, and
// mutates the samples' GovAction/GovArg annotations in place so the
// telemetry stream records what was decided. Step is deterministic: its
// output is a pure function of the sample sequence fed so far.
func (g *Governor) Step(window, cycle int64, samples []*obs.WindowSample) []Decision {
	var out []Decision
	emit := func(ws *obs.WindowSample, d Decision) {
		d.Window, d.Cycle, d.Core = window, cycle, ws.Core
		ws.GovAction = d.Action
		switch d.Action {
		case ActionRetune:
			ws.GovArg = d.TooFar
		case ActionRespawn:
			ws.GovArg = int64(g.cores[ws.Core].respawns)
		}
		out = append(out, d)
	}
	for _, ws := range samples {
		if ws.Core >= len(g.cores) {
			continue
		}
		cs := &g.cores[ws.Core]
		if ws.GovRespawned {
			// The core re-seeded the ghost autonomously (PC-synchronized
			// respawn at a region-loop header crossing): whatever we
			// thought of the old ghost, this is a fresh one — restart the
			// warmup clock and clear the kill record.
			cs.killed = false
			cs.windows = 0
			cs.negStreak = 0
		}
		if !ws.HelperActive {
			// A per-phase slice retires ITSELF at its region tail (it has
			// no backedge). Under PC-synced respawn that is the expected
			// end-of-phase signal, not a death: mark it down exactly like
			// a kill so RevivePeriod below re-arms it. A short phase
			// can start AND finish inside one window — sync checks or
			// prefetches in the window are the evidence it lived.
			lived := cs.windows > 0 || ws.GhostLeadCount > 0 ||
				ws.Prefetch.Issued+ws.Prefetch.Redundant > 0
			if g.cfg.ResyncPC > 0 && !cs.killed && lived {
				cs.killed = true
				cs.killedAt = window
				cs.negStreak = 0
			}
			// Nothing to judge. A governor-killed ghost comes back, with
			// fresh live-ins, after RevivePeriod windows of sitting out.
			if cs.killed && cs.respawns < MaxRespawns && g.cfg.RevivePeriod > 0 &&
				window-cs.killedAt >= g.cfg.RevivePeriod {
				cs.killed = false
				cs.respawns++
				cs.windows = 0
				cs.negStreak = 0
				emit(ws, Decision{Action: ActionRespawn, Reason: "revive-period"})
			}
			continue
		}

		cs.windows++
		neg, why := g.negative(ws)
		warm := cs.windows > Warmup
		if neg && warm {
			cs.negStreak++
		} else if !neg {
			cs.negStreak = 0
		}

		if cs.negStreak >= KillAfter {
			cs.killed = true
			cs.killedAt = window
			cs.negStreak = 0
			emit(ws, Decision{Action: ActionKill, Reason: why})
			continue
		}

		if cs.cooldown > 0 {
			cs.cooldown--
			continue
		}
		if g.cfg.Retune && g.cfg.TooFarAddr > 0 {
			if d, ok := g.retune(cs, ws); ok {
				cs.cooldown = RetuneCooldown
				emit(ws, d)
			}
		}
	}
	return out
}

// retune narrows the dynamic throttle window from one window's prefetch
// quality: inaccurate prefetches from a ghost running far ahead mean the
// lead itself is the problem, so TooFar is halved (down to MinTooFar).
// Close tracks TooFar/2, preserving the static segment's hysteresis
// ratio.
func (g *Governor) retune(cs *coreState, ws *obs.WindowSample) (Decision, bool) {
	if ws.Prefetch.Issued+ws.Prefetch.Redundant < MinPF ||
		ws.PFAccuracy >= 0.25 || ws.GhostLeadCount == 0 || ws.GhostLeadP50 <= cs.tooFar/2 {
		return Decision{}, false
	}
	next := max(cs.tooFar/2, MinTooFar)
	if next == cs.tooFar {
		return Decision{}, false
	}
	cs.tooFar, cs.close = next, next/2
	return Decision{Action: ActionRetune, Reason: "inaccurate-far",
		TooFar: cs.tooFar, Close: cs.close}, true
}
