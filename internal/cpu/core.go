package cpu

import (
	"fmt"
	"math"

	"ghostthread/internal/cache"
	"ghostthread/internal/fault"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/obs"
)

// entry states. The engine is fully analytic: every instruction's issue
// and completion cycles are fixed the moment it dispatches (its producers,
// dispatched earlier, already have fixed completion cycles — induction
// from program order), so the reorder buffer never holds an entry whose
// timing is unknown. Only the serialize instruction defers: its cost
// starts when it reaches the ROB head.
const (
	stIssued    = iota // scheduled: completes at completeAt
	stSerialize        // serialize: completes at the ROB head (drain + restart cost)
)

// thread is one SMT hardware context. The reorder buffer is kept in
// structure-of-arrays form: the per-slot fields the hot loops touch
// (state bytes, static pcs, completion cycles) live in parallel slices
// sized once per reset and reused across helper re-spawns, so commit
// walks densely packed state and the steady-state step path allocates
// nothing.
type thread struct {
	id   int
	gen  uint32
	prog *isa.Program
	code []dInstr // decoded image of prog (see decoded.go)

	active   bool
	startAt  int64
	halted   bool // halt dispatched
	finished bool // halted and ROB drained

	pc   int
	regs [isa.NumRegs]int64
	// regReady is, per register, the completion cycle of its latest
	// producer, written at dispatch once that cycle is fixed. A value at or
	// before now is final: a committed producer has completed by now.
	regReady [isa.NumRegs]int64

	// Reorder buffer, SoA. Slot i is described by state[i], rpc[i] (the
	// static pc, indexing code), cmeta[i] (the commit metadata,
	// see decoded.go), and completeAt[i] — the completion cycle in
	// stIssued, or the drain deadline in stSerialize (0 = not yet at the
	// head).
	state      []uint8
	rpc        []int32
	cmeta      []uint8
	completeAt []int64
	head, tail int
	count      int

	lq, sq            int
	fetchBlockedUntil int64
	serializeBlocked  bool

	// Per-run statistics.
	committed      int64
	serializes     int64
	serializeStall int64 // Σ (commit − dispatch) cycles over retired serializes
	frontendStall  int64 // cycles active with an empty ROB (fetch-blocked)
	stallPC        []int64
	execPC         []int64

	// Serialize bookkeeping: dispatch cycle and pc of the serialize
	// currently blocking fetch (meaningful while serializeBlocked).
	serStart int64
	serPC    int32

	// Tracing-only state (mutated only when a recorder is attached, and
	// never read by the timing model or statistics).
	robStallStart int64 // open full-window stall span start, -1 when none
	robStallPC    int32
	inSkip        bool // inside a FlagSyncSkip run (dedups skip instants)
}

func (t *thread) reset(prog *isa.Program, dp *decodedProgram, robSize int, startAt int64) {
	t.gen++
	t.prog = prog
	if dp != nil {
		t.code = dp.code
	} else {
		t.code = nil
	}
	t.active = prog != nil
	t.startAt = startAt
	t.halted = false
	t.finished = false
	t.pc = 0
	t.regReady = [isa.NumRegs]int64{}
	if cap(t.state) < robSize {
		t.state = make([]uint8, robSize)
		t.rpc = make([]int32, robSize)
		t.cmeta = make([]uint8, robSize)
		t.completeAt = make([]int64, robSize)
	}
	t.state = t.state[:robSize]
	t.rpc = t.rpc[:robSize]
	t.cmeta = t.cmeta[:robSize]
	t.completeAt = t.completeAt[:robSize]
	t.head, t.tail, t.count = 0, 0, 0
	t.lq, t.sq = 0, 0
	t.fetchBlockedUntil = 0
	t.serializeBlocked = false
	t.committed = 0
	t.serializes = 0
	t.serializeStall = 0
	t.frontendStall = 0
	t.serStart, t.serPC = 0, 0
	t.robStallStart, t.robStallPC = -1, 0
	t.inSkip = false
	if prog != nil {
		// Reuse the profile counters across re-spawns of same-sized
		// programs (the common helper case) so spawning never allocates on
		// the steady-state path.
		n := len(prog.Code)
		if cap(t.stallPC) < n {
			t.stallPC = make([]int64, n)
			t.execPC = make([]int64, n)
		} else {
			t.stallPC = t.stallPC[:n]
			t.execPC = t.execPC[:n]
			clear(t.stallPC)
			clear(t.execPC)
		}
	}
}

// Core is one physical core with two SMT contexts sharing a cache
// hierarchy, issue bandwidth, and MSHRs.
type Core struct {
	cfg  Config
	hier *cache.Hierarchy
	mem  *mem.Memory

	helpers  []*isa.Program
	dmain    *decodedProgram
	dhelpers []*decodedProgram
	threads  [2]thread
	now      int64
	events   triggerList
	lat      [3]int64 // issue latency per latClass (Int, Mul, Div)

	// Analytic MSHR file: mshrFreeAt holds, per slot, the cycle at which
	// its outstanding fill lands (free when ≤ the access time), arranged
	// as a binary min-heap so the earliest release is the root. A miss
	// that finds every slot busy at its ready cycle is delayed to the
	// earliest release — the queueing discipline the event-driven model
	// expressed as per-cycle retries.
	mshrFreeAt []int64

	// Issue-port claim ring: issueCnt[c&claimMask] is the number of the
	// cycle's IssueWidth ports already claimed, valid when
	// issueStamp[c&claimMask] == c (stale slots read as zero, so the ring
	// never needs bulk clearing as the clock advances). Every instruction
	// claims the earliest free cycle at dispatch, in dispatch order.
	// Claims beyond claimHorizon cycles ahead are not tracked — a
	// dependence chain stretching that far into the future is
	// latency-bound, not port-bound.
	issueCnt   [claimHorizon]int16
	issueStamp [claimHorizon]int64

	// Statistics.
	LoadLevel     [4]int64 // demand loads + atomics satisfied per level
	PrefetchLevel [4]int64 // prefetches satisfied per level
	Stores        int64
	Prefetches    int64
	Spawns        int64
	GovKills      int64 // governor kill decisions that retired a live ghost
	GovRespawns   int64 // governor re-spawns executed

	// Governor state: the last helper id the main program spawned (-1
	// before any spawn — the governor can only re-spawn what once ran),
	// whether re-spawning is permanently off (main joined, or a fault
	// kill revoked the ghost context), and the main-counter word the
	// respawn handler re-zeroes to re-align the sync distance (0 = none).
	lastHid    int
	noRespawn  bool
	govCtrAddr int64

	// PC-synchronized respawn (SetGovResync). A window boundary is an
	// arbitrary point in the main loop body, so the main context's
	// registers there are mid-iteration state — worthless as ghost entry
	// values. When govResyncPC is set, evGovRespawn only ARMS the
	// trigger; the actual re-seed fires when the main thread next
	// dispatches the region-loop header, where the loop-carried live-ins
	// are exactly what OpSpawn would have captured. govAtResync
	// edge-detects the arrival (a stalled header must not re-fire every
	// cycle); govRespawnCap bounds total governor respawns.
	govResyncPC   int64
	govRespawnCap int64
	govArmed      bool
	govAtResync   bool

	// Accumulated per-context counters surviving helper re-spawns.
	accCommitted  [2]int64
	accSerializes [2]int64
	accSerStall   [2]int64
	accFrontend   [2]int64

	// Observability (nil = off; see internal/obs). Emission sites guard
	// with a nil check so the disabled hot path costs one branch, and
	// neither tracing nor telemetry ever feeds back into timing or
	// statistics — a traced run is bit-identical to an untraced one.
	trace      *obs.Recorder
	wrec       *obs.WindowRecorder // windowed telemetry accumulator
	wrecAddr   int64               // ghost counter word for the lead tap
	id         uint8               // core id stamped into trace events
	ghostStart int64               // spawn-dispatch cycle of the live helper (tracing)

	// Shadow oracle (nil = off; see shadow.go). Taps sit in dispatch,
	// which only runs at stepped cycles, so the counters are identical
	// across stepping modes; the oracle never feeds back into timing.
	shadow *shadowOracle

	// Fault injection (nil = off; see internal/fault). Draw points are
	// event processing and dispatch — both of which run at the same
	// cycles under per-cycle stepping and event skipping, so a faulted run
	// is bit-identical across step modes.
	fault *fault.Injector

	// Parking (park.go): the steady-state probe and, while parked, the
	// period Unpark replays. onStore (nil = none) runs before each store
	// of this core lands in memory.
	park    parkState
	onStore func(addr int64)

	err error
}

// New builds a core over the given hierarchy and memory.
func New(cfg Config, hier *cache.Hierarchy, m *mem.Memory) *Core {
	c := &Core{cfg: cfg, hier: hier, mem: m}
	c.threads[0].id = 0
	c.threads[1].id = 1
	c.lat = [3]int64{cfg.IntLat, cfg.MulLat, cfg.DivLat}
	return c
}

// Load installs the main program on context 0 and records the helper
// programs that OpSpawn can activate on context 1. Programs are decoded
// once here (see decoded.go); isa.Program is immutable after building,
// so the decoded image needs no invalidation.
func (c *Core) Load(main *isa.Program, helpers []*isa.Program) {
	c.helpers = helpers
	c.dmain = decodeProgram(main)
	c.dhelpers = c.dhelpers[:0]
	for _, h := range helpers {
		c.dhelpers = append(c.dhelpers, decodeProgram(h))
	}
	c.threads[0].reset(main, c.dmain, c.cfg.ROBSize, 0)
	c.threads[1].reset(nil, nil, c.cfg.ROBSize, 0)
	c.accCommitted = [2]int64{}
	c.accSerializes = [2]int64{}
	c.accSerStall = [2]int64{}
	c.accFrontend = [2]int64{}
	c.ghostStart = 0
	c.lastHid = -1
	c.noRespawn = false
	// PC-synced re-seeding is armed from the start: a per-phase ghost
	// needs fresh live-ins at EVERY region-header crossing, including the
	// first ones, or it misses whole phases waiting for a governor
	// decision. A governor kill disarms; a respawn decision re-arms.
	c.govArmed = c.govResyncPC > 0
	c.govAtResync = false
	c.now = 0
	c.events.reset()
	nmshr := c.cfg.MSHRs
	if nmshr < 1 {
		nmshr = 1 // the heap root is probed unconditionally
	}
	if cap(c.mshrFreeAt) < nmshr {
		c.mshrFreeAt = make([]int64, nmshr)
	}
	c.mshrFreeAt = c.mshrFreeAt[:nmshr]
	clear(c.mshrFreeAt)
	for i := range c.issueStamp {
		c.issueStamp[i] = -1
	}
	c.err = nil
	c.park.reset()
	if c.fault != nil {
		// Seed the trigger list with the fault triggers that need one: the
		// first preemption window and the one-shot ghost kill. Scheduling
		// them (instead of polling) is what lets injection compose with
		// the event-skip fast path.
		if gap := c.fault.NextPreemptGap(); gap > 0 {
			c.events.push(event{at: gap, kind: evFaultPreempt})
		}
		if at := c.fault.Config().GhostKillAt; at > 0 {
			c.events.push(event{at: at, kind: evFaultKill})
		}
	}
}

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// Err returns the first simulation error (bad program behaviour), if any.
func (c *Core) Err() error { return c.err }

// Done reports whether the main thread has finished (and any helper is
// inactive or finished).
func (c *Core) Done() bool {
	if c.err != nil {
		return true
	}
	t0, t1 := &c.threads[0], &c.threads[1]
	return t0.finished && (!t1.active || t1.finished)
}

// smtActive reports whether both contexts are competing for resources.
func (c *Core) smtActive() bool { return c.threads[1].live() }

func (c *Core) robCap() int {
	if c.smtActive() {
		return c.cfg.ROBSize / 2
	}
	return c.cfg.ROBSize
}

func (c *Core) lqCap() int {
	if c.smtActive() {
		return c.cfg.LoadQ / 2
	}
	return c.cfg.LoadQ
}

func (c *Core) sqCap() int {
	if c.smtActive() {
		return c.cfg.StoreQ / 2
	}
	return c.cfg.StoreQ
}

// claimHorizon is how many cycles ahead the issue-port claim ring
// tracks; a power of two, so claimMask indexes the ring.
const (
	claimHorizon = 1 << 10
	claimMask    = claimHorizon - 1
)

// claimIssue claims an issue port at the earliest cycle at or after
// ready with a free slot and returns that cycle. Ports beyond
// claimHorizon are untracked (see the issueCnt field comment).
func (c *Core) claimIssue(ready int64) int64 {
	cyc := ready
	for cyc-c.now <= claimHorizon {
		b := int(uint64(cyc) & claimMask)
		if c.issueStamp[b] != cyc {
			c.issueStamp[b] = cyc
			c.issueCnt[b] = 1
			return cyc
		}
		if int(c.issueCnt[b]) < c.cfg.IssueWidth {
			c.issueCnt[b]++
			return cyc
		}
		cyc++
	}
	return cyc
}

// mshrWait returns the earliest cycle at or after `at` with a free MSHR.
// mshrFreeAt is a binary min-heap, so the earliest-freeing slot is the
// root; only the multiset of free times is observable (wait, busy), so
// the heap is behaviourally identical to a flat scan at O(1) per probe.
func (c *Core) mshrWait(at int64) int64 {
	if f := c.mshrFreeAt[0]; f > at {
		return f
	}
	return at
}

// mshrClaim occupies the earliest-freeing MSHR slot until the fill
// lands: a replace-root sift-down on the free-time heap.
func (c *Core) mshrClaim(until int64) {
	h := c.mshrFreeAt
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[l] >= until {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = until
}

// mshrBusy counts MSHR slots occupied at cycle `at`.
func (c *Core) mshrBusy(at int64) int {
	n := 0
	for _, f := range c.mshrFreeAt {
		if f > at {
			n++
		}
	}
	return n
}

// Step advances the core by one cycle: process due fault triggers,
// commit, then dispatch (reverse pipeline order). It returns false once
// the core is done.
func (c *Core) Step() bool {
	if c.Done() {
		return false
	}
	c.now++
	if c.events.len() > 0 {
		c.processEvents()
	}
	for i := range c.threads {
		c.commit(&c.threads[i])
	}
	c.dispatch()
	if c.trace != nil {
		c.traceStalls()
	}
	return !c.Done()
}

// traceStalls runs at the end of every stepped cycle when tracing is on:
// it opens a full-window stall span when a context's reorder window is
// full behind an uncommittable head and closes it when the condition
// clears. The predicate is a pure function of pipeline state, and state
// only changes at stepped cycles, so the spans come out identical under
// per-cycle stepping and the event-skip fast path — a SkipTo jump cannot
// land inside a state transition (see NextEvent's contract).
func (c *Core) traceStalls() {
	for i := range c.threads {
		t := &c.threads[i]
		blocked := false
		var pc int32
		if t.active && !t.finished && t.count >= c.robCap() &&
			t.state[t.head] == stIssued && t.completeAt[t.head] > c.now {
			blocked = true
			pc = t.rpc[t.head]
		}
		switch {
		case blocked && t.robStallStart < 0:
			t.robStallStart = c.now
			t.robStallPC = pc
		case !blocked && t.robStallStart >= 0:
			c.closeROBStall(t)
		}
	}
}

// closeROBStall emits the open full-window stall span of t, ending now.
func (c *Core) closeROBStall(t *thread) {
	if dur := c.now - t.robStallStart; dur > 0 {
		c.trace.Emit(obs.Event{Cycle: t.robStallStart, Dur: dur, Arg: int64(t.robStallPC),
			Kind: obs.KindROBStall, Core: c.id, Ctx: uint8(t.id)})
	}
	t.robStallStart = -1
}

// Run steps until completion or maxCycles, returning the cycle count.
// Between steps it fast-forwards over spans NextEvent proves inert, so a
// DRAM-bound run costs one step per event rather than one per cycle; the
// returned cycle count and every statistic are identical to stepping
// cycle by cycle (SkipTo accrues the skipped cycles' stall accounting).
func (c *Core) Run(maxCycles int64) (int64, error) {
	for c.Step() {
		if c.now >= maxCycles {
			return c.now, fmt.Errorf("cpu: %q exceeded %d cycles", c.threads[0].prog.Name, maxCycles)
		}
		if next := c.NextEvent(); next > c.now+1 {
			c.SkipTo(min(next-1, maxCycles-1))
		}
	}
	return c.now, c.err
}

// never is NextEvent's "no future event" sentinel.
const never = math.MaxInt64

// NextEvent returns the earliest cycle, strictly after Now(), at which
// any core state can change — or math.MaxInt64 when the core is done (or
// deadlocked). Calling Step for every cycle in (Now(), NextEvent()) would
// only accrue stall statistics; SkipTo accrues them in O(1), which is
// what lets the run loop jump straight to the next event.
//
// It must be called between Steps (after Step has returned), when these
// invariants hold and every possible state change is one of:
//
//   - a pending trigger firing (fault preemption or kill, governor kill
//     or respawn — the only events left in the analytic engine);
//   - the ROB head reaching its completion cycle (stIssued) or, for a
//     serialize, its drain deadline;
//   - a committable ROB head (commit-width limits can leave one);
//   - dispatch proceeding once its fetch barriers (thread start, branch
//     redirect, spawn/join costs) expire.
//
// Dispatch blocked on a full ROB or load/store queue only unblocks via
// commit, covered by the head clauses above.
func (c *Core) NextEvent() int64 {
	if c.Done() {
		return never
	}
	next := int64(never)
	if at, ok := c.events.next(); ok && at < next {
		next = at
	}
	for i := range c.threads {
		t := &c.threads[i]
		if !t.active || t.finished {
			continue
		}
		// Commit progress.
		if t.count > 0 {
			switch t.state[t.head] {
			case stIssued:
				next = min(next, max(t.completeAt[t.head], c.now+1))
			case stSerialize:
				if at := t.completeAt[t.head]; at == 0 {
					next = min(next, c.now+1) // drain deadline set at the head
				} else {
					next = min(next, at)
				}
			}
		}
		// Dispatch progress. Threads blocked mid-pipeline (serialize
		// drain, full ROB/LQ/SQ, join-wait) only unblock via commits
		// handled above; everything else can dispatch as soon as the
		// fetch barriers expire.
		if t.halted || t.serializeBlocked {
			continue
		}
		if t.count >= c.robCap() {
			continue
		}
		if t.pc >= 0 && t.pc < len(t.code) {
			d := &t.code[t.pc]
			switch d.class {
			case clLoad, clAtomic, clPrefetch:
				if t.lq >= c.lqCap() {
					continue
				}
			case clStore:
				if t.sq >= c.sqCap() {
					continue
				}
			case clJoin:
				if d.imm == JoinWaitImm && c.smtActive() {
					continue
				}
			}
		}
		next = min(next, max(c.now+1, max(t.startAt, t.fetchBlockedUntil)))
	}
	return next
}

// SkipTo advances the clock to target without stepping, accruing exactly
// the statistics the skipped cycles would have recorded: a thread with a
// blocked ROB head charges its stall-attribution counter every cycle, and
// a thread with an empty ROB charges frontend stalls from its start cycle
// on. The caller must ensure target < NextEvent() (no state other than
// these counters may change over the span); SkipTo(target <= Now()) is a
// no-op.
func (c *Core) SkipTo(target int64) {
	if target <= c.now {
		return
	}
	span := target - c.now
	for i := range c.threads {
		t := &c.threads[i]
		if !t.active || t.finished {
			continue
		}
		if t.count == 0 {
			// An empty ROB with halted set would already be finished, so
			// this thread is fetch-blocked or not yet started: it counts
			// frontend-stall cycles once its start cycle is reached.
			if from := max(c.now+1, t.startAt); from <= target {
				t.frontendStall += target - from + 1
			}
			continue
		}
		// The head cannot commit anywhere in the span (otherwise
		// NextEvent would have stopped the skip sooner), so every skipped
		// cycle charges the instruction blocking it.
		t.stallPC[t.rpc[t.head]] += span
	}
	c.now = target
}

// processEvents fires the triggers due this cycle, one at a time in
// (deadline, schedule order). A handler's push (applyPreempt's next
// window) is due strictly later, so it lands after them.
func (c *Core) processEvents() {
	for {
		e, ok := c.events.popDue(c.now)
		if !ok {
			return
		}
		switch e.kind {
		case evFaultPreempt:
			c.applyPreempt()
		case evFaultKill:
			if c.deactivateHelper() {
				c.fault.Stats.Kills++
			}
			// The OS revoked the ghost's context: the governor must not
			// resurrect what the fault schedule killed.
			c.noRespawn = true
		case evGovKill:
			// Disarm PC-synced re-seeding too: a kill that left the header
			// trigger armed would be undone at the next crossing.
			c.govArmed = false
			if c.deactivateHelper() {
				c.GovKills++
				if c.trace != nil {
					c.trace.Emit(obs.Event{Cycle: c.now, Kind: obs.KindGovKill,
						Core: c.id, Ctx: 1})
				}
			}
		case evGovRespawn:
			if c.govResyncPC > 0 {
				// Defer the re-seed to the main thread's next region-loop
				// header crossing (see dispatchOne) — and keep it armed, so
				// every later crossing refreshes the ghost for its phase.
				c.govArmed = true
			} else {
				c.govRespawn()
			}
		}
	}
}

// govRespawn handles one evGovRespawn trigger: re-spawn the last helper
// the main program launched, seeding it with the main context's CURRENT
// register values — the same closure capture OpSpawn performs, but taken
// now, so loop-carried live-ins that went stale since the original spawn
// (per-level bounds, frontier pointers) are re-synchronized. A live ghost
// is replaced (the manual per-level bfs ghost re-spawns over a live
// sibling the same way); main pays no spawn cost — the governor, not the
// main program, initiates this. The main sync counter word is re-zeroed
// so the fresh ghost's local count and the published count restart
// aligned, exactly like the counter reset rewriteMain emits before
// OpSpawn. No-op once main has halted or joined, after a fault kill, or
// before any first spawn.
func (c *Core) govRespawn() {
	t0 := &c.threads[0]
	if c.lastHid < 0 || c.noRespawn || t0.halted || t0.finished {
		return
	}
	if c.govRespawnCap > 0 && c.GovRespawns >= c.govRespawnCap {
		return
	}
	c.deactivateHelper() // settle accounting of a live-but-stale ghost
	c.accumulate(1)
	c.threads[1].reset(c.helpers[c.lastHid], c.dhelpers[c.lastHid], c.cfg.ROBSize, c.now+c.cfg.SpawnCostHelper)
	c.threads[1].regs = t0.regs
	c.Spawns++
	c.GovRespawns++
	c.ghostStart = c.now
	if c.govCtrAddr > 0 {
		if c.onStore != nil {
			c.onStore(c.govCtrAddr)
		}
		c.mem.StoreWord(c.govCtrAddr, 0)
	}
	if c.trace != nil {
		c.trace.Emit(obs.Event{Cycle: c.now, Arg: int64(c.lastHid),
			Kind: obs.KindGovRespawn, Core: c.id, Ctx: 1})
	}
}

// applyPreempt handles one evFaultPreempt trigger: the OS context-switches
// the sibling SMT context away for a drawn window, so the helper fetches
// nothing while its in-flight instructions drain. The window length and
// the gap to the next trigger are always drawn — whether or not a helper
// is live — so the schedule is a function of the seed alone and never
// shifts with workload behaviour.
func (c *Core) applyPreempt() {
	win := c.fault.PreemptWindow()
	gap := c.fault.NextPreemptGap()
	h := &c.threads[1]
	if h.active && !h.finished {
		c.fault.Stats.Preemptions++
		c.fault.Stats.PreemptedCycles += win
		if bl := c.now + win; bl > h.fetchBlockedUntil {
			h.fetchBlockedUntil = bl
		}
	}
	c.events.push(event{at: c.now + win + gap, kind: evFaultPreempt})
}

// deactivateHelper kills the live helper context mid-flight — the shared
// path of the default join and the ghost-kill fault (ghost threads modify
// no application state, so an asynchronous kill is architecturally safe).
// It settles the partial serialize-stall window and closes open trace
// spans. Reports whether a helper was actually live.
func (c *Core) deactivateHelper() bool {
	h := &c.threads[1]
	if !h.active || h.finished {
		return false
	}
	if h.serializeBlocked {
		// The kill interrupts a serialize throttle mid-flight: account the
		// partial stall so the counter (and the span sum) covers every
		// throttled cycle.
		dur := c.now - h.serStart
		h.serializeStall += dur
		if c.trace != nil && dur > 0 {
			c.trace.Emit(obs.Event{Cycle: h.serStart, Dur: dur, Arg: int64(h.serPC),
				Kind: obs.KindSerialize, Core: c.id, Ctx: 1})
		}
	}
	if c.trace != nil {
		if h.robStallStart >= 0 {
			c.closeROBStall(h)
		}
		if dur := c.now - c.ghostStart; dur > 0 {
			c.trace.Emit(obs.Event{Cycle: c.ghostStart, Dur: dur,
				Kind: obs.KindGhostLife, Core: c.id, Ctx: 1})
		}
	}
	c.park.retireClaims(h)
	h.active = false
	h.finished = true
	h.gen++
	return true
}

func (c *Core) commit(t *thread) {
	if !t.active || t.finished {
		return
	}
	if t.count == 0 {
		if t.halted {
			t.finished = true
			c.traceGhostDrain(t)
		} else if c.now >= t.startAt {
			t.frontendStall++
		}
		return
	}
	for w := 0; w < c.cfg.CommitWidth && t.count > 0; w++ {
		h := t.head
		pc := t.rpc[h]
		if t.state[h] == stSerialize {
			if t.completeAt[h] == 0 {
				// The serialize has drained: all older instructions have
				// committed. It now pays its microcode/restart cost.
				t.completeAt[h] = c.now + c.cfg.SerializeLat
			}
			if c.now < t.completeAt[h] {
				t.stallPC[pc]++
				return
			}
			t.serializeBlocked = false
			t.serializes++
			dur := c.now - t.serStart
			t.serializeStall += dur
			if c.trace != nil && dur > 0 {
				c.trace.Emit(obs.Event{Cycle: t.serStart, Dur: dur, Arg: int64(pc),
					Kind: obs.KindSerialize, Core: c.id, Ctx: uint8(t.id)})
			}
		} else if t.completeAt[h] > c.now {
			if w == 0 {
				t.stallPC[pc]++
			}
			return
		}
		switch t.cmeta[h] {
		case cmetaQStore:
			t.sq--
		case cmetaQLoad:
			t.lq--
		}
		t.execPC[pc]++
		t.committed++
		t.head++
		if t.head == len(t.state) {
			t.head = 0
		}
		t.count--
	}
	if t.count == 0 && t.halted {
		t.finished = true
		c.traceGhostDrain(t)
	}
}

// traceGhostDrain closes the ghost-life span when the helper context
// finishes by draining naturally.
func (c *Core) traceGhostDrain(t *thread) {
	if c.trace == nil || t.id != 1 {
		return
	}
	if dur := c.now - c.ghostStart; dur > 0 {
		c.trace.Emit(obs.Event{Cycle: c.ghostStart, Dur: dur,
			Kind: obs.KindGhostLife, Core: c.id, Ctx: 1})
	}
}

// readyFloor returns the earliest cycle the instruction's operands allow
// it to begin execution: the latest completion cycle among its
// producers. Every producer, being older, already has a fixed completion
// cycle — the induction the analytic engine rests on. A floor at or
// before now means the operands are final; callers treat every such
// floor alike (max(now+1, floor), floor > now).
func (t *thread) readyFloor(d *dInstr) int64 {
	floor := int64(0)
	if d.nsrc >= 1 {
		floor = t.regReady[d.src1]
		if d.nsrc == 2 {
			floor = max(floor, t.regReady[d.src2])
		}
	}
	return floor
}

// observeFill records a newly allocated L1 fill issued at cycle `at`: an
// MSHR-occupancy observation and, when tracing, a fill span on the mem
// track covering the in-flight window.
func (c *Core) observeFill(t *thread, addr, at int64, res cache.AccessResult) {
	if c.wrec != nil {
		c.wrec.ObserveMSHR(c.mshrBusy(at))
	}
	if c.trace != nil {
		if dur := res.CompleteAt - at; dur > 0 {
			c.trace.Emit(obs.Event{Cycle: at, Dur: dur, Arg: addr, Kind: obs.KindFill,
				Core: c.id, Ctx: uint8(t.id), Level: uint8(res.Level)})
		}
	}
}

// issueMem fixes the issue cycle of a memory operation dispatched this
// cycle and performs its cache access there-and-then: the access is
// stamped with the claimed future issue cycle, so hit/miss classification,
// fill timing, MSHR occupancy, and bandwidth consumption all see the
// cycle the event-driven engine would have issued at. A miss finding all
// MSHRs busy is delayed to the earliest release (analytic queueing in
// place of per-cycle retries). Returns the entry's completion cycle.
func (c *Core) issueMem(t *thread, d *dInstr, addr, floor int64) int64 {
	ready := c.now + 1
	if floor > ready {
		ready = floor
	}
	switch d.class {
	case clLoad, clAtomic:
		if c.hier.WouldMissL1(addr, ready) {
			if w := c.mshrWait(ready); w > ready {
				ready = w
			}
		}
		issueAt := c.claimIssue(ready)
		res := c.hier.DemandAccess(addr, issueAt)
		c.LoadLevel[res.Level]++
		if res.NewMiss {
			c.mshrClaim(res.CompleteAt)
			c.observeFill(t, addr, issueAt, res)
		}
		return res.CompleteAt
	case clPrefetch:
		if c.hier.WouldMissL1(addr, ready) {
			if w := c.mshrWait(ready); w > ready {
				ready = w
			}
		}
		issueAt := c.claimIssue(ready)
		var pfDrop bool
		var pfDelay int64
		if c.fault != nil {
			pfDrop, pfDelay = c.fault.PrefetchFate()
		}
		if pfDrop {
			// Dropped in the memory system: the instruction still retires
			// (software prefetches are hints), but no fill starts.
			c.Prefetches++
		} else {
			res := c.hier.PrefetchAccess(addr, issueAt)
			if pfDelay > 0 && res.NewMiss {
				res.CompleteAt += pfDelay
				c.hier.DelayFill(addr, res.CompleteAt)
			}
			c.PrefetchLevel[res.Level]++
			c.Prefetches++
			if c.trace != nil {
				c.trace.Emit(obs.Event{Cycle: issueAt, Arg: addr, Kind: obs.KindPrefetch,
					Core: c.id, Ctx: uint8(t.id), Level: uint8(res.Level)})
			}
			if res.NewMiss {
				c.mshrClaim(res.CompleteAt)
				c.observeFill(t, addr, issueAt, res)
			}
		}
		return issueAt + 1 // fire-and-forget: retires without the fill
	default: // clStore
		// The store buffer absorbs the store; the access still moves
		// cache state and consumes bandwidth on a miss (RFO).
		issueAt := c.claimIssue(ready)
		c.hier.DemandAccess(addr, issueAt)
		c.Stores++
		return issueAt + 1
	}
}

// dispatch fetches, functionally executes, and inserts instructions into
// the ROB one at a time, sharing FetchWidth between the threads.
func (c *Core) dispatch() {
	slots := c.cfg.FetchWidth
	first := int(c.now & 1)
	for k := 0; k < 2 && slots > 0; k++ {
		t := &c.threads[(first+k)&1]
		for slots > 0 && c.dispatchOne(t) {
			slots--
		}
	}
}

// dispatchOne dispatches the next instruction of t, returning false when
// the thread cannot dispatch this cycle. Execution switches on the
// original isa.Instr; the decoded twin supplies class, latency and flag
// lookups.
func (c *Core) dispatchOne(t *thread) bool {
	if !t.active || t.halted || t.finished || c.err != nil {
		return false
	}
	if t.id == 0 && c.govArmed {
		// Armed PC-synchronized respawn: re-seed the ghost the moment the
		// main thread arrives back at the region-loop header, where its
		// loop-carried registers are valid ghost entry state (registers
		// are computed at dispatch in this engine, so everything before
		// the backedge has executed). Edge-detected: a header stalled on
		// the ROB or fetch block must re-seed once, not every cycle. The
		// check sits before the structural blocks for exactly that reason.
		if int64(t.pc) == c.govResyncPC {
			if !c.govAtResync {
				c.govAtResync = true
				c.govRespawn()
			}
		} else {
			c.govAtResync = false
		}
	}
	if c.now < t.startAt || c.now < t.fetchBlockedUntil || t.serializeBlocked {
		return false
	}
	if t.count >= c.robCap() {
		return false
	}
	if t.pc < 0 || t.pc >= len(t.prog.Code) {
		c.err = fmt.Errorf("cpu: %q thread %d pc %d out of range", t.prog.Name, t.id, t.pc)
		return false
	}
	in := &t.prog.Code[t.pc]
	d := &t.code[t.pc] // decoded twin: class/latency/flag lookups only

	// Structural pre-checks that must hold before consuming the instruction.
	switch in.Op {
	case isa.OpLoad, isa.OpAtomicAdd, isa.OpPrefetch:
		if t.lq >= c.lqCap() {
			return false
		}
	case isa.OpStore:
		if t.sq >= c.sqCap() {
			return false
		}
	case isa.OpJoin:
		if in.Imm == JoinWaitImm && c.smtActive() {
			return false // wait for the worker to finish
		}
	case isa.OpSpawn:
		if c.smtActive() {
			c.err = fmt.Errorf("cpu: %q spawns helper while sibling context busy", t.prog.Name)
			return false
		}
	}

	idx := int32(t.tail)
	t.rpc[idx] = int32(t.pc)
	t.cmeta[idx] = d.cmeta
	floor := t.readyFloor(d)

	// Functional execution (execute-at-dispatch).
	var memAddr int64
	nextPC := t.pc + 1
	switch in.Op {
	case isa.OpNop:
	case isa.OpConst:
		t.regs[in.Dst] = in.Imm
	case isa.OpMov:
		t.regs[in.Dst] = t.regs[in.Src1]
	case isa.OpAdd:
		t.regs[in.Dst] = t.regs[in.Src1] + t.regs[in.Src2]
	case isa.OpSub:
		t.regs[in.Dst] = t.regs[in.Src1] - t.regs[in.Src2]
	case isa.OpMul:
		t.regs[in.Dst] = t.regs[in.Src1] * t.regs[in.Src2]
	case isa.OpDiv:
		if t.regs[in.Src2] == 0 {
			t.regs[in.Dst] = 0
		} else {
			t.regs[in.Dst] = t.regs[in.Src1] / t.regs[in.Src2]
		}
	case isa.OpRem:
		if t.regs[in.Src2] == 0 {
			t.regs[in.Dst] = 0
		} else {
			t.regs[in.Dst] = t.regs[in.Src1] % t.regs[in.Src2]
		}
	case isa.OpAnd:
		t.regs[in.Dst] = t.regs[in.Src1] & t.regs[in.Src2]
	case isa.OpOr:
		t.regs[in.Dst] = t.regs[in.Src1] | t.regs[in.Src2]
	case isa.OpXor:
		t.regs[in.Dst] = t.regs[in.Src1] ^ t.regs[in.Src2]
	case isa.OpShl:
		t.regs[in.Dst] = t.regs[in.Src1] << (uint64(t.regs[in.Src2]) & 63)
	case isa.OpShr:
		t.regs[in.Dst] = int64(uint64(t.regs[in.Src1]) >> (uint64(t.regs[in.Src2]) & 63))
	case isa.OpMin:
		t.regs[in.Dst] = min(t.regs[in.Src1], t.regs[in.Src2])
	case isa.OpMax:
		t.regs[in.Dst] = max(t.regs[in.Src1], t.regs[in.Src2])
	case isa.OpAddI:
		t.regs[in.Dst] = t.regs[in.Src1] + in.Imm
	case isa.OpMulI:
		t.regs[in.Dst] = t.regs[in.Src1] * in.Imm
	case isa.OpAndI:
		t.regs[in.Dst] = t.regs[in.Src1] & in.Imm
	case isa.OpXorI:
		t.regs[in.Dst] = t.regs[in.Src1] ^ in.Imm
	case isa.OpShlI:
		t.regs[in.Dst] = t.regs[in.Src1] << (uint64(in.Imm) & 63)
	case isa.OpShrI:
		t.regs[in.Dst] = int64(uint64(t.regs[in.Src1]) >> (uint64(in.Imm) & 63))
	case isa.OpLoad:
		addr := t.regs[in.Src1] + in.Imm
		if addr < 0 || addr >= c.mem.Size() {
			c.err = fmt.Errorf("cpu: %q thread %d pc %d: segfault: load at %d", t.prog.Name, t.id, t.pc, addr)
			return false
		}
		memAddr = addr
		if c.shadow != nil && t.id == 0 {
			c.shadow.demand(addr)
		}
		v := c.mem.LoadWord(addr)
		if c.fault != nil && t.id == 1 &&
			in.Flags&(isa.FlagSync|isa.FlagSyncSkip) == isa.FlagSync {
			// The ghost's sync-counter read may observe the main thread's
			// published counter with a lag (store visibility delay). The
			// value only steers the ghost's throttle state machine — ghosts
			// never store — so this is timing-only.
			v = c.fault.StaleValue(v)
		}
		t.regs[in.Dst] = v
		t.lq++
	case isa.OpStore:
		addr := t.regs[in.Src1] + in.Imm
		if addr < 0 || addr >= c.mem.Size() {
			c.err = fmt.Errorf("cpu: %q thread %d pc %d: segfault: store at %d", t.prog.Name, t.id, t.pc, addr)
			return false
		}
		memAddr = addr
		if c.onStore != nil {
			c.onStore(addr)
		}
		c.mem.StoreWord(addr, t.regs[in.Src2])
		t.sq++
	case isa.OpPrefetch:
		// Prefetches to unmapped addresses are dropped, as on real
		// hardware; clamp so the cache model sees a harmless line. The
		// shadow oracle sees the raw address — an unmapped prefetch is
		// precisely the divergence it exists to catch.
		addr := t.regs[in.Src1] + in.Imm
		if c.shadow != nil && t.id == 1 {
			c.shadow.prefetch(addr)
		}
		if addr < 0 || addr >= c.mem.Size() {
			addr = 0
		}
		memAddr = addr
		t.lq++
	case isa.OpAtomicAdd:
		addr := t.regs[in.Src1] + in.Imm
		if addr < 0 || addr >= c.mem.Size() {
			c.err = fmt.Errorf("cpu: %q thread %d pc %d: segfault: atomic at %d", t.prog.Name, t.id, t.pc, addr)
			return false
		}
		memAddr = addr
		if c.shadow != nil && t.id == 0 {
			c.shadow.demand(addr)
		}
		if c.onStore != nil {
			c.onStore(addr)
		}
		v := c.mem.LoadWord(addr) + t.regs[in.Src2]
		c.mem.StoreWord(addr, v)
		t.regs[in.Dst] = v
		t.lq++
	case isa.OpSerialize:
		t.serializeBlocked = true
		t.serStart = c.now
		t.serPC = int32(t.pc)
	case isa.OpJmp:
		nextPC = int(in.Target)
	case isa.OpBEQ:
		if t.regs[in.Src1] == t.regs[in.Src2] {
			nextPC = int(in.Target)
		}
	case isa.OpBNE:
		if t.regs[in.Src1] != t.regs[in.Src2] {
			nextPC = int(in.Target)
		}
	case isa.OpBLT:
		if t.regs[in.Src1] < t.regs[in.Src2] {
			nextPC = int(in.Target)
		}
	case isa.OpBGE:
		if t.regs[in.Src1] >= t.regs[in.Src2] {
			nextPC = int(in.Target)
		}
	case isa.OpBLE:
		if t.regs[in.Src1] <= t.regs[in.Src2] {
			nextPC = int(in.Target)
		}
	case isa.OpBGT:
		if t.regs[in.Src1] > t.regs[in.Src2] {
			nextPC = int(in.Target)
		}
	case isa.OpSpawn:
		hid := int(in.Imm)
		if hid < 0 || hid >= len(c.helpers) || c.helpers[hid] == nil {
			c.err = fmt.Errorf("cpu: %q spawns unknown helper %d", t.prog.Name, hid)
			return false
		}
		c.accumulate(1)
		spawnDelay := int64(0)
		if c.fault != nil {
			spawnDelay = c.fault.SpawnDelay()
		}
		c.threads[1].reset(c.helpers[hid], c.dhelpers[hid], c.cfg.ROBSize, c.now+c.cfg.SpawnCostHelper+spawnDelay)
		// The helper inherits the spawning thread's register values (the
		// closure the thread-start call captures); extracted ghost
		// threads rely on this for their live-ins.
		c.threads[1].regs = t.regs
		c.Spawns++
		c.lastHid = hid
		c.ghostStart = c.now
		if c.trace != nil {
			c.trace.Emit(obs.Event{Cycle: c.now, Arg: int64(hid),
				Kind: obs.KindGhostSpawn, Core: c.id, Ctx: uint8(t.id)})
		}
		bl := c.now + c.cfg.SpawnCostMain
		if bl > t.fetchBlockedUntil {
			t.fetchBlockedUntil = bl
		}
	case isa.OpJoin:
		c.deactivateHelper()
		// Main is past the ghosted region: a governor re-spawn after this
		// point would prefetch against code main no longer runs.
		c.noRespawn = true
		if c.trace != nil {
			c.trace.Emit(obs.Event{Cycle: c.now, Kind: obs.KindGhostJoin,
				Core: c.id, Ctx: uint8(t.id)})
		}
		bl := c.now + c.cfg.JoinCost
		if bl > t.fetchBlockedUntil {
			t.fetchBlockedUntil = bl
		}
	case isa.OpHalt:
		t.halted = true
	default:
		c.err = fmt.Errorf("cpu: %q pc %d: unimplemented op %s", t.prog.Name, t.pc, in.Op)
		return false
	}

	// Observability taps (no effect on timing or statistics).
	if c.trace != nil {
		if in.Flags&isa.FlagSyncSkip != 0 {
			if !t.inSkip {
				t.inSkip = true
				c.trace.Emit(obs.Event{Cycle: c.now, Arg: int64(t.pc),
					Kind: obs.KindSyncSkip, Core: c.id, Ctx: uint8(t.id)})
			}
		} else {
			t.inSkip = false
		}
	}
	if c.wrec != nil && c.wrecAddr != 0 &&
		t.id == 1 && in.Op == isa.OpLoad &&
		in.Flags&(isa.FlagSync|isa.FlagSyncSkip|isa.FlagGovParam) == isa.FlagSync {
		// A sync check: the ghost just read the main thread's published
		// counter. Its own count is the published ghost counter word
		// (requires core.SyncParams.Trace); with no counter address there
		// is nothing to compare against, so the lead series stays empty.
		c.wrec.ObserveLead(c.mem.LoadWord(c.wrecAddr) - t.regs[in.Dst])
	}

	// Entry scheduling: fix the issue and completion cycles now.
	switch d.class {
	case clSerialize:
		t.state[idx] = stSerialize
		t.completeAt[idx] = 0
	case clSpawn, clJoin, clHalt:
		// No issue slot and no destination, hence no dependents:
		// completes next cycle; commit reads completeAt directly.
		t.state[idx] = stIssued
		t.completeAt[idx] = c.now + 1
	case clLoad, clStore, clPrefetch, clAtomic:
		t.state[idx] = stIssued
		t.completeAt[idx] = c.issueMem(t, d, memAddr, floor)
	default:
		ready := c.now + 1
		if floor > ready {
			ready = floor
		}
		t.state[idx] = stIssued
		t.completeAt[idx] = c.claimIssue(ready) + c.lat[d.latClass]
		// A hard branch resolving in the future stalls fetch until its
		// completion cycle plus the redirect penalty. A branch whose
		// operands were final at dispatch predicts perfectly and costs
		// nothing — the model the event-driven engine expressed with a
		// waitBranch stall cleared at the completion event.
		if d.hard && floor > c.now {
			if bl := t.completeAt[idx] + c.cfg.BranchPenalty; bl > t.fetchBlockedUntil {
				t.fetchBlockedUntil = bl
			}
		}
	}

	if in.Op.HasDst() {
		t.regReady[in.Dst] = t.completeAt[idx]
	}
	if c.park.probing {
		c.noteDispatch(d.class, memAddr, t.regs[in.Dst])
	}

	t.tail++
	if t.tail == len(t.state) {
		t.tail = 0
	}
	t.count++
	t.pc = nextPC
	return true
}

// JoinWaitImm distinguishes a "wait for the helper to finish" join (used
// by the SMT-parallelization transform) from the default "kill the
// helper" join Ghost Threading uses.
const JoinWaitImm = 1

// Thread statistics accessors.

// accumulate folds context id's current counters into the spawn-surviving
// aggregates (called before the context is reset for a new helper).
func (c *Core) accumulate(id int) {
	t := &c.threads[id]
	c.accCommitted[id] += t.committed
	c.accSerializes[id] += t.serializes
	c.accSerStall[id] += t.serializeStall
	c.accFrontend[id] += t.frontendStall
	t.committed, t.serializes, t.serializeStall, t.frontendStall = 0, 0, 0, 0
}

// Committed returns the number of instructions committed by context id,
// across helper re-spawns.
func (c *Core) Committed(id int) int64 { return c.accCommitted[id] + c.threads[id].committed }

// Serializes returns how many serialize instructions context id retired,
// across helper re-spawns.
func (c *Core) Serializes(id int) int64 { return c.accSerializes[id] + c.threads[id].serializes }

// SerializeStall returns the total cycles context id spent with fetch
// stopped behind serialize instructions (dispatch to commit per
// serialize, including the partial window of a serialize killed by a
// join), across helper re-spawns. It equals the sum of the
// serialize-throttle span durations in a trace of the same run.
func (c *Core) SerializeStall(id int) int64 {
	return c.accSerStall[id] + c.threads[id].serializeStall
}

// FrontendStalls returns cycles context id spent active with an empty ROB.
func (c *Core) FrontendStalls(id int) int64 {
	return c.accFrontend[id] + c.threads[id].frontendStall
}

// SetTrace attaches (or with nil detaches) an event recorder; coreID is
// stamped into emitted events as the Perfetto process id. Attach before
// running — events are emitted from the attach point on.
func (c *Core) SetTrace(r *obs.Recorder, coreID int) {
	c.trace = r
	c.id = uint8(coreID)
}

// Trace returns the attached recorder, or nil.
func (c *Core) Trace() *obs.Recorder { return c.trace }

// SetWindowRecorder attaches (or with nil detaches) the windowed
// telemetry accumulator. ghostAddr is the memory word holding the
// ghost's published iteration count (core.Counters.GhostAddr; the
// ghost-lead tap needs core.SyncParams.Trace so the ghost publishes
// there; 0 disables the tap). The recorder is drained by sim.System at
// window-boundary flushes.
func (c *Core) SetWindowRecorder(w *obs.WindowRecorder, ghostAddr int64) {
	c.wrec = w
	c.wrecAddr = ghostAddr
}

// SetFault attaches (or with nil detaches) a fault injector. Attach
// before Load: Load schedules the injector's triggers.
func (c *Core) SetFault(inj *fault.Injector) { c.fault = inj }

// SetGovCounter tells the governor hooks which memory word holds the
// main thread's published sync counter (core.Counters.MainAddr); the
// re-spawn handler re-zeroes it to re-align the inter-thread distance.
// 0 (the default) skips the reset.
func (c *Core) SetGovCounter(addr int64) { c.govCtrAddr = addr }

// SetGovResync arms PC-synchronized re-spawning: an evGovRespawn no
// longer re-seeds the helper at the (arbitrary) window-boundary cycle —
// where the main context's registers are mid-iteration garbage as ghost
// entry state — but sets a trigger that fires when the MAIN thread next
// dispatches pc, the rewritten main's region-loop header
// (slice.Result.ResyncPC). There the loop-carried live-ins are exactly
// the values OpSpawn would have captured, so the fresh ghost starts the
// new outer iteration (BFS level, join partition) in lock-step with
// main. The trigger is sticky: once armed, EVERY later header crossing
// re-seeds — converting a phase-stale slice into a per-phase adaptive
// ghost — until cap total governor respawns (0 = unbounded), a join, or
// a fault kill retires the context for good. The header dispatch is a
// stepped cycle in every stepping mode, so PC-synced respawns preserve
// bit-identical replay.
func (c *Core) SetGovResync(pc, cap int64) { c.govResyncPC, c.govRespawnCap = pc, cap }

// ScheduleGovKill schedules a governor ghost-kill for the next stepped
// cycle. It rides the trigger list exactly like the evFaultKill trigger,
// so it fires at the same cycle under per-cycle stepping and event
// skipping (NextEvent never skips past a pending trigger). Call only
// between steps (window-boundary flushes qualify).
func (c *Core) ScheduleGovKill() {
	c.events.push(event{at: c.now + 1, kind: evGovKill})
}

// ScheduleGovRespawn schedules a governor ghost re-spawn for the next
// stepped cycle (see ScheduleGovKill for the determinism argument and
// govRespawn for the semantics).
func (c *Core) ScheduleGovRespawn() {
	c.events.push(event{at: c.now + 1, kind: evGovRespawn})
}

// FaultStats returns the counters of faults actually injected so far
// (zero when no injector is attached).
func (c *Core) FaultStats() fault.Stats {
	if c.fault == nil {
		return fault.Stats{}
	}
	return c.fault.Stats
}

// PCProfile returns per-static-instruction (stall cycles, executions) for
// context id's current program. The slices alias internal state; callers
// must copy if they outlive the run.
func (c *Core) PCProfile(id int) (stall, exec []int64) {
	return c.threads[id].stallPC, c.threads[id].execPC
}

// HelperActive reports whether context 1 is running.
func (c *Core) HelperActive() bool { return c.smtActive() }

// Hier returns the core's cache hierarchy (for system-level statistics).
func (c *Core) Hier() *cache.Hierarchy { return c.hier }

// PipelineSample is a point-in-time snapshot of the core's occupancy,
// used by the gttrace tool to visualise full-window stalls (figure 2)
// and serialize throttling.
type PipelineSample struct {
	Cycle            int64
	ROB              [2]int  // entries occupied per context
	LQ               [2]int  // load-queue entries per context
	SQ               [2]int  // store-queue entries per context
	MSHRs            int     // outstanding L1 misses (shared)
	SerializeBlocked [2]bool // context blocked behind a serialize
	Active           [2]bool
}

// Sample snapshots the pipeline occupancy at the current cycle.
func (c *Core) Sample() PipelineSample {
	var s PipelineSample
	s.Cycle = c.now
	s.MSHRs = c.mshrBusy(c.now)
	for i := range c.threads {
		t := &c.threads[i]
		s.ROB[i] = t.count
		s.LQ[i] = t.lq
		s.SQ[i] = t.sq
		s.SerializeBlocked[i] = t.serializeBlocked
		s.Active[i] = t.active && !t.finished
	}
	return s
}
