package cpu

import (
	"slices"
	"testing"

	"ghostthread/internal/fault"
	"ghostthread/internal/isa"
)

// drain pops every trigger due at now and returns their kinds in firing
// order.
func drain(l *triggerList, now int64) []int8 {
	var kinds []int8
	for {
		e, ok := l.popDue(now)
		if !ok {
			return kinds
		}
		kinds = append(kinds, e.kind)
	}
}

// TestTriggerListScheduleOrder: triggers due in the same cycle fire in
// the order they were scheduled, whether each was scheduled thousands of
// cycles ahead or one cycle ahead, and nothing fires before its deadline.
func TestTriggerListScheduleOrder(t *testing.T) {
	var l triggerList
	l.push(event{at: 5000, kind: 0}) // scheduled far ahead, first
	l.push(event{at: 4000, kind: 1})
	l.push(event{at: 5000, kind: 2}) // same deadline, scheduled second
	if at, ok := l.next(); !ok || at != 4000 {
		t.Fatalf("next = (%d, %v), want (4000, true)", at, ok)
	}
	if got := drain(&l, 3999); len(got) != 0 {
		t.Fatalf("popped %v before the earliest deadline", got)
	}
	if got := drain(&l, 4000); !slices.Equal(got, []int8{1}) {
		t.Fatalf("cycle 4000 fired %v, want [1]", got)
	}
	l.push(event{at: 5000, kind: 3}) // scheduled later, one cycle ahead
	if got := drain(&l, 4999); len(got) != 0 {
		t.Fatalf("popped %v before its deadline", got)
	}
	if got := drain(&l, 5000); !slices.Equal(got, []int8{0, 2, 3}) {
		t.Errorf("cycle 5000 fired %v, want schedule order [0 2 3]", got)
	}
	if l.len() != 0 {
		t.Errorf("%d triggers left after draining", l.len())
	}
}

// TestTriggerListPushWhileProcessing: a trigger pushed while the cycle's
// due triggers are being popped (applyPreempt's next window) is due
// later, so it fires after every trigger already due, at its own cycle.
func TestTriggerListPushWhileProcessing(t *testing.T) {
	var l triggerList
	l.push(event{at: 10, kind: 0})
	l.push(event{at: 10, kind: 1})
	e, ok := l.popDue(10)
	if !ok || e.kind != 0 {
		t.Fatalf("first pop = (%+v, %v), want kind 0", e, ok)
	}
	l.push(event{at: 11, kind: 2}) // the handler schedules the next trigger
	if got := drain(&l, 10); !slices.Equal(got, []int8{1}) {
		t.Errorf("rest of cycle 10 fired %v, want [1]", got)
	}
	if got := drain(&l, 11); !slices.Equal(got, []int8{2}) {
		t.Errorf("cycle 11 fired %v, want [2]", got)
	}
}

func TestTriggerListReset(t *testing.T) {
	var l triggerList
	l.push(event{at: 7, kind: 0})
	l.push(event{at: 9000, kind: 1})
	l.reset()
	if l.len() != 0 {
		t.Fatalf("len = %d after reset, want 0", l.len())
	}
	if _, ok := l.next(); ok {
		t.Error("next reports a deadline after reset")
	}
	if got := drain(&l, 1<<40); len(got) != 0 {
		t.Errorf("popped %v after reset", got)
	}
	l.push(event{at: 3, kind: 2})
	if got := drain(&l, 3); !slices.Equal(got, []int8{2}) {
		t.Errorf("after reset and push, fired %v, want [2]", got)
	}
}

// TestSameCycleKillsFireInScheduleOrder drives the order through a core:
// the one-shot fault kill, scheduled at Load thousands of cycles ahead,
// and a governor kill scheduled one cycle ahead come due in the same
// cycle. The fault kill was scheduled first, so it retires the ghost and
// the governor's kill finds nothing live.
func TestSameCycleKillsFireInScheduleOrder(t *testing.T) {
	const killAt = 3000
	cfg := DefaultConfig()
	cfg.SpawnCostMain = 10
	cfg.SpawnCostHelper = 10
	hb := isa.NewBuilder("spinner")
	i := hb.Imm(0)
	lim := hb.Imm(1 << 40)
	one := hb.Imm(1)
	l := hb.HereLabel()
	hb.Add(i, i, one)
	hb.BLT(i, lim, l)
	hb.Halt()

	b := isa.NewBuilder("main")
	b.Spawn(0)
	d := b.Imm(1)
	zero := b.Imm(0)
	n := b.Imm(20_000)
	b.CountedLoop("delay", zero, n, func(isa.Reg) { b.AddI(d, d, 1) })
	b.Join()
	b.Halt()

	c, _ := testRig(cfg, 1024)
	c.SetFault(fault.NewInjector(fault.Config{Seed: 1, GhostKillAt: killAt}, 0))
	c.Load(b.MustBuild(), []*isa.Program{hb.MustBuild()})
	for c.Now() < killAt-1 {
		if !c.Step() {
			t.Fatal("program finished before the kill cycle")
		}
	}
	if !c.HelperActive() {
		t.Fatal("helper not live before the kill cycle; test proves nothing")
	}
	c.ScheduleGovKill()
	c.Step()
	if c.HelperActive() {
		t.Fatal("helper still live after two kills")
	}
	if c.fault.Stats.Kills != 1 || c.GovKills != 0 {
		t.Errorf("fault kills = %d, governor kills = %d; want 1 and 0 (the fault kill was scheduled first)",
			c.fault.Stats.Kills, c.GovKills)
	}
}
