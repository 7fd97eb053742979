package cpu

// event kinds processed from the core's trigger list. The analytic engine
// fixes every instruction's issue and completion cycles at dispatch, so
// the list carries only asynchronous triggers: the fault injector's and
// the adaptive governor's (internal/gov), which both ride the same
// deterministic mechanism.
const (
	evFaultPreempt = iota // a ghost-preemption window begins (internal/fault)
	evFaultKill           // the one-shot ghost-kill fault fires
	evGovKill             // the governor retires a negative-benefit ghost
	evGovRespawn          // the governor re-spawns the ghost with fresh live-ins
)

type event struct {
	at   int64
	kind int8
}

// triggerList is the core's pending triggers, sorted by (deadline,
// schedule order): a push lands after every trigger whose deadline is ≤
// its own, so same-cycle triggers fire in exactly the order they were
// scheduled, however far ahead each was scheduled. Only the next
// preemption window, the one-shot kill and the governor's next-cycle
// decisions are ever scheduled, and no measured run had more than two
// pending (DESIGN.md §13.2), so a linear insert is all the structure the
// list needs. The backing array is reused across pushes and pops, so
// after warm-up the list performs no allocation.
type triggerList struct {
	q []event
}

// reset discards all pending triggers, keeping capacity.
func (l *triggerList) reset() { l.q = l.q[:0] }

func (l *triggerList) len() int { return len(l.q) }

// push schedules e; e.at must lie after the core's current cycle.
func (l *triggerList) push(e event) {
	i := len(l.q)
	for i > 0 && l.q[i-1].at > e.at {
		i--
	}
	l.q = append(l.q, event{})
	copy(l.q[i+1:], l.q[i:])
	l.q[i] = e
}

// next returns the earliest pending deadline.
func (l *triggerList) next() (int64, bool) {
	if len(l.q) == 0 {
		return 0, false
	}
	return l.q[0].at, true
}

// popDue removes and returns the head trigger if it is due at now. It
// shifts the rest down in place rather than re-slicing the front, so the
// backing array keeps its full capacity for later pushes.
func (l *triggerList) popDue(now int64) (event, bool) {
	if len(l.q) == 0 || l.q[0].at > now {
		return event{}, false
	}
	e := l.q[0]
	n := copy(l.q, l.q[1:])
	l.q = l.q[:n]
	return e, true
}
