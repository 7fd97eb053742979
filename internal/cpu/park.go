package cpu

import (
	"slices"

	"ghostthread/internal/cache"
	"ghostthread/internal/isa"
)

// Parking (DESIGN.md §9.5). A core that waits at a barrier spins at full
// fetch width on a word in its own L1: every few cycles its timing state,
// relative to the clock, is what it was before, and it touches nothing
// another core can see. Such a core need not be stepped. The multi-core
// run loop (sim.System.Run) calls Probe after each Step; every
// parkProbeEvery cycles Probe snapshots the core's timing state and
// watches up to parkMaxPeriod further Steps for the state to recur. When
// it recurs after a period that only hit filled L1 lines, Probe parks the
// core: the loop stops stepping it, and Unpark later applies the whole
// periods it skipped in one go and steps the rest.
//
// The snapshot must cover everything Step reads that the core itself
// changes. Any new piece of timing state must join parkSnap (and, if it
// holds absolute cycles, shiftTiming), or parked runs stop matching
// CycleStep.
const (
	parkProbeEvery = 1024 // cycles between probes
	parkMaxPeriod  = 16   // Steps a probe watches for the state to recur
	parkMaxWatch   = 8    // distinct words a parkable period may load
)

// parkState is one core's parking machinery.
type parkState struct {
	probeAt int64 // cycle of the next probe (<= now while probing)
	probing bool
	parked  bool
	ok      bool // no dispatch in the probe so far disqualified it
	steps   int

	// deadClaims bounds the issue-port claims of instructions a killed
	// helper left in flight: they outlive its ROB, so claimsAhead cannot
	// see them, and no probe starts before they have passed.
	deadClaims int64

	snap parkSnap

	// The period, captured when the core parks.
	period int64
	watch  []watched // words the period loads
	lines  []int64   // their distinct L1 lines
	delta  parkDelta

	claims []claim // scratch for the issue-port claims
}

// parkSnap is the timing state at the probe's start, relative to now.
type parkSnap struct {
	now         int64
	stats       Stats
	govArmed    bool
	govAtResync bool
	claims      []claim
	th          [2]threadSnap
}

// threadSnap is one context's part of parkSnap. Cycles are stored
// relative to the snapshot's now and clamped at 0: every consumer treats
// a cycle at or before now alike (see rel).
type threadSnap struct {
	active, halted, finished bool

	pc             int
	regs, ready    [isa.NumRegs]int64
	startAt, fetch int64
	lq, sq         int
	rob            []robSnap
	stall, exec    []int64 // profile counters, for the period's deltas
}

// watched is a word a probe's period loaded and the value it read.
type watched struct{ addr, val int64 }

type robSnap struct {
	pc   int32
	done int64
}

// claim is one cycle's issue-port claims, relative to now.
type claim struct {
	at  int64
	cnt int16
}

// parkDelta is what one period adds to the counters that may move while
// a core spins.
type parkDelta struct {
	committed, frontend [2]int64
	load0, l1Hits       int64
	pcs                 [2][]pcDelta
}

type pcDelta struct {
	pc          int
	stall, exec int64
}

// rel is cycle at relative to now, clamped at 0.
func rel(at, now int64) int64 { return max(at-now, 0) }

// live reports whether the context can commit or dispatch.
func (t *thread) live() bool { return t.active && !t.finished }

// slot returns the ROB slot of the j-th entry from the head.
func (t *thread) slot(j int) int {
	if h := t.head + j; h < len(t.state) {
		return h
	}
	return t.head + j - len(t.state)
}

// SetStoreHook installs f, called with the word address just before each
// store, atomic or governor counter reset of this core lands in memory
// (nil removes it). The multi-core run loop uses it to wake a parked core
// whose period loaded that word.
func (c *Core) SetStoreHook(f func(addr int64)) { c.onStore = f }

// Probe runs after each Step on a multi-core machine and reports whether
// the core has just parked. A parked core must not be stepped, skipped or
// read until Unpark brings it up to date. CycleStep runs never call it,
// and neither do single-core runs: a lone core whose state recurs can
// only be livelocked.
func (c *Core) Probe() bool {
	if c.now < c.park.probeAt {
		return false
	}
	return c.probe()
}

// Parked reports whether the core is parked.
func (c *Core) Parked() bool { return c.park.parked }

// Watches reports whether the parked core's period loads word addr: a
// store to it ends the period's recurrence.
func (c *Core) Watches(addr int64) bool {
	return slices.ContainsFunc(c.park.watch, func(w watched) bool { return w.addr == addr })
}

// Unpark brings a parked core up to cycle target (at or after the cycle
// it parked at) exactly as stepping would have: whole periods are applied
// at once, the rest is stepped. It returns the cycles applied without
// stepping.
func (c *Core) Unpark(target int64) int64 {
	p := &c.park
	p.parked = false
	p.probeAt = target + parkProbeEvery
	k := (target - c.now) / p.period
	if k > 0 {
		c.applyPeriods(k)
	}
	for c.now < target {
		next := c.NextEvent()
		if next > target {
			c.SkipTo(target)
			break
		}
		c.SkipTo(next - 1)
		c.Step()
	}
	return k * p.period
}

func (p *parkState) reset() {
	p.probeAt = parkProbeEvery
	p.probing, p.parked = false, false
	p.deadClaims = 0
	p.watch = p.watch[:0]
}

// retireClaims records, before context t is killed, the cycle by which
// every issue-port claim of its in-flight instructions has passed.
func (p *parkState) retireClaims(t *thread) {
	for j := 0; j < t.count; j++ {
		p.deadClaims = max(p.deadClaims, t.completeAt[t.slot(j)])
	}
}

// probe is Probe's slow path: start a probe, or judge one more Step of
// the running one.
func (c *Core) probe() bool {
	p := &c.park
	if !p.probing {
		p.probeAt = c.now + parkProbeEvery
		if c.parkable() {
			c.takeSnap()
			p.probing, p.ok, p.steps = true, true, 0
			p.watch = p.watch[:0]
			p.probeAt = c.now
		}
		return false
	}
	p.steps++
	if p.ok && c.err == nil && c.events.len() == 0 && !c.Done() && c.recurs() {
		if c.capturePeriod() {
			p.probing, p.parked = false, true
			return true
		}
		p.ok = false // recurred, but the period cannot repeat
	}
	if !p.ok || p.steps >= parkMaxPeriod {
		p.probing = false
		p.probeAt = p.snap.now + parkProbeEvery
	}
	return false
}

// parkable reports whether the core may start a probe: no observer or
// fault injector attached (they act at every dispatch), nothing on the
// trigger list, no miss in flight, no claim of a killed helper ahead, and
// no serialize in the window.
func (c *Core) parkable() bool {
	if c.trace != nil || c.wrec != nil || c.shadow != nil || c.fault != nil ||
		c.err != nil || c.events.len() > 0 || c.Done() || c.now < c.park.deadClaims {
		return false
	}
	for _, f := range c.mshrFreeAt {
		if f > c.now {
			return false
		}
	}
	for i := range c.threads {
		if t := &c.threads[i]; t.live() && t.serializeBlocked {
			return false
		}
	}
	return true
}

// noteDispatch vets one instruction dispatched during a probe: a period
// may only compute, branch and load; the words it loads are watched. val
// is the value a load read. A period that read two values of one word
// (another core stored to it meanwhile) does not repeat.
func (c *Core) noteDispatch(class uint8, addr, val int64) {
	p := &c.park
	switch class {
	case clALU, clJmp, clCondBr:
	case clLoad:
		i := slices.IndexFunc(p.watch, func(w watched) bool { return w.addr == addr })
		switch {
		case i >= 0:
			p.ok = p.ok && p.watch[i].val == val
		case len(p.watch) == parkMaxWatch:
			p.ok = false
		default:
			p.watch = append(p.watch, watched{addr, val})
		}
	default: // stores, atomics, prefetches, spawn, join, serialize, halt
		p.ok = false
	}
}

// claimsAhead collects the issue-port claims on cycles after now into
// buf. Every claim belongs to an instruction that completes after it, so
// claims past now lie before the latest completion in the ROBs.
func (c *Core) claimsAhead(buf []claim) []claim {
	buf = buf[:0]
	horizon := c.now
	for i := range c.threads {
		t := &c.threads[i]
		if !t.live() {
			continue
		}
		for j := 0; j < t.count; j++ {
			horizon = max(horizon, t.completeAt[t.slot(j)])
		}
	}
	horizon = min(horizon, c.now+claimHorizon)
	for cyc := c.now + 1; cyc <= horizon; cyc++ {
		b := int(uint64(cyc) & claimMask)
		if c.issueStamp[b] == cyc {
			buf = append(buf, claim{cyc - c.now, c.issueCnt[b]})
		}
	}
	return buf
}

// takeSnap records the probe's starting state.
func (c *Core) takeSnap() {
	s := &c.park.snap
	s.now = c.now
	s.stats = c.Stats()
	s.govArmed, s.govAtResync = c.govArmed, c.govAtResync
	s.claims = c.claimsAhead(s.claims)
	for i := range c.threads {
		t, ts := &c.threads[i], &s.th[i]
		ts.active, ts.halted, ts.finished = t.active, t.halted, t.finished
		if !t.live() {
			continue
		}
		ts.pc, ts.regs = t.pc, t.regs
		for r, at := range t.regReady {
			ts.ready[r] = rel(at, c.now)
		}
		ts.startAt, ts.fetch = rel(t.startAt, c.now), rel(t.fetchBlockedUntil, c.now)
		ts.lq, ts.sq = t.lq, t.sq
		ts.rob = ts.rob[:0]
		for j := 0; j < t.count; j++ {
			h := t.slot(j)
			ts.rob = append(ts.rob, robSnap{t.rpc[h], rel(t.completeAt[h], c.now)})
		}
		ts.stall = append(ts.stall[:0], t.stallPC...)
		ts.exec = append(ts.exec[:0], t.execPC...)
	}
}

// recurs reports whether the timing state equals the snapshot's,
// relative to now. The cheap fields go first: a core doing real work
// almost always differs in pc or occupancy.
func (c *Core) recurs() bool {
	s := &c.park.snap
	for i := range c.threads {
		t, ts := &c.threads[i], &s.th[i]
		if t.active != ts.active || t.halted != ts.halted || t.finished != ts.finished {
			return false
		}
		if t.live() && (t.pc != ts.pc || t.count != len(ts.rob) || t.lq != ts.lq || t.sq != ts.sq ||
			t.serializeBlocked) {
			return false
		}
	}
	if c.govArmed != s.govArmed || c.govAtResync != s.govAtResync {
		return false
	}
	// dispatch picks the first context by the parity of now.
	if c.threads[0].live() && c.threads[1].live() && (c.now-s.now)&1 != 0 {
		return false
	}
	for i := range c.threads {
		t, ts := &c.threads[i], &s.th[i]
		if !t.live() {
			continue
		}
		if rel(t.startAt, c.now) != ts.startAt || rel(t.fetchBlockedUntil, c.now) != ts.fetch ||
			t.regs != ts.regs {
			return false
		}
		for r, at := range t.regReady {
			if rel(at, c.now) != ts.ready[r] {
				return false
			}
		}
		for j := 0; j < t.count; j++ {
			h := t.slot(j)
			if e := ts.rob[j]; t.rpc[h] != e.pc || rel(t.completeAt[h], c.now) != e.done {
				return false
			}
		}
	}
	c.park.claims = c.claimsAhead(c.park.claims)
	return slices.Equal(c.park.claims, s.claims)
}

// spinFrozen zeroes the counters a spinning core may move; the rest must
// not move in a parkable period.
func spinFrozen(st Stats) Stats {
	st.Cycles = 0
	st.Committed, st.FrontendStalls = [2]int64{}, [2]int64{}
	st.LoadLevel[0], st.L1Hits = 0, 0
	return st
}

// capturePeriod records the period that just recurred, or reports false
// when another core has since stored to a word it loaded, or when it moved
// a counter a spinning core cannot (an L1 miss or an in-flight hit, a
// prefetch classification, anything beyond L1).
func (c *Core) capturePeriod() bool {
	p := &c.park
	s := &p.snap
	for _, w := range p.watch {
		if c.mem.LoadWord(w.addr) != w.val {
			return false // stored to since the period read it
		}
	}
	st := c.Stats()
	if spinFrozen(st) != spinFrozen(s.stats) {
		return false
	}
	p.period = c.now - s.now
	d := &p.delta
	for i := range c.threads {
		d.committed[i] = st.Committed[i] - s.stats.Committed[i]
		d.frontend[i] = st.FrontendStalls[i] - s.stats.FrontendStalls[i]
		d.pcs[i] = d.pcs[i][:0]
		t, ts := &c.threads[i], &s.th[i]
		if !t.live() {
			continue
		}
		for pc := range t.stallPC {
			if ds, de := t.stallPC[pc]-ts.stall[pc], t.execPC[pc]-ts.exec[pc]; ds != 0 || de != 0 {
				d.pcs[i] = append(d.pcs[i], pcDelta{pc, ds, de})
			}
		}
	}
	d.load0 = st.LoadLevel[0] - s.stats.LoadLevel[0]
	d.l1Hits = st.L1Hits - s.stats.L1Hits
	p.lines = p.lines[:0]
	for _, w := range p.watch {
		if l := cache.LineOf(w.addr); !slices.Contains(p.lines, l) {
			p.lines = append(p.lines, l)
		}
	}
	return true
}

// applyPeriods advances a parked core by k whole periods without
// stepping: every cycle still ahead moves k periods later, and the
// counters gain k periods' worth.
func (c *Core) applyPeriods(k int64) {
	p := &c.park
	d := k * p.period
	c.shiftTiming(d)
	for i := range c.threads {
		t := &c.threads[i]
		t.committed += k * p.delta.committed[i]
		t.frontendStall += k * p.delta.frontend[i]
		for _, e := range p.delta.pcs[i] {
			t.stallPC[e.pc] += k * e.stall
			t.execPC[e.pc] += k * e.exec
		}
	}
	c.LoadLevel[0] += k * p.delta.load0
	c.hier.L1.Hits += k * p.delta.l1Hits
	for _, l := range p.lines {
		c.hier.L1.ShiftUse(l, d)
	}
	c.now += d
}

// shiftTiming moves every cycle after now d cycles later: the live
// contexts' start, fetch barrier, register ready and completion cycles,
// and the issue-port claims. Cycles at or before now stay put; they read
// as "past" either way.
func (c *Core) shiftTiming(d int64) {
	shift := func(at *int64) {
		if *at > c.now {
			*at += d
		}
	}
	p := &c.park
	p.claims = c.claimsAhead(p.claims)
	for i := range c.threads {
		t := &c.threads[i]
		if !t.live() {
			continue
		}
		shift(&t.startAt)
		shift(&t.fetchBlockedUntil)
		for r := range t.regReady {
			shift(&t.regReady[r])
		}
		for j := 0; j < t.count; j++ {
			shift(&t.completeAt[t.slot(j)])
		}
	}
	for _, cl := range p.claims {
		c.issueStamp[int(uint64(c.now+cl.at)&claimMask)] = -1
	}
	for _, cl := range p.claims {
		at := c.now + d + cl.at
		b := int(uint64(at) & claimMask)
		c.issueStamp[b], c.issueCnt[b] = at, cl.cnt
	}
}
