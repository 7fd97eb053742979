// Package obs is the simulator's observability layer: a preallocated
// ring-buffer event recorder the core emits typed trace events into, an
// exporter to Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), the windowed telemetry stream (WindowRecorder and
// WindowSample, summarised with mergeable Sketches), and a folded-stacks
// renderer for flamegraph tools.
//
// Tracing is strictly opt-in: a core holds a *Recorder that is nil by
// default, and every emission site is guarded by a nil check, so the
// disabled hot path costs one predictable branch. Crucially, tracing is
// observation only — no statistic, timing decision, or replacement state
// depends on whether a recorder is attached, so a traced run is
// bit-identical to an untraced one (the differential suites in
// internal/cpu and internal/sim prove it).
//
// Span events carry their start cycle and duration explicitly rather
// than being reconstructed from begin/end markers. This is what makes
// tracing correct under the event-skip fast path (DESIGN.md §9): state
// that holds across a SkipTo jump — a serialize throttle, a full-window
// stall — opens at the cycle the condition arose and closes at the cycle
// it cleared, both of which are event cycles the skipper steps on, so the
// recorded duration equals the per-cycle reference's even though no Step
// ran in between.
package obs

// Kind enumerates the traced event types.
type Kind uint8

// Event kinds. Instants have Dur == 0; spans carry Dur > 0.
const (
	// KindGhostSpawn: the main context dispatched a spawn (Arg = helper id).
	KindGhostSpawn Kind = iota
	// KindGhostJoin: the main context dispatched a join.
	KindGhostJoin
	// KindGhostLife is a span on the ghost track covering one helper
	// activation, from spawn dispatch to natural drain or join kill.
	KindGhostLife
	// KindSerialize is a span covering one serialize instruction from
	// dispatch to commit — the throttle window during which the thread's
	// fetch is stopped (Arg = pc of the serialize).
	KindSerialize
	// KindSyncSkip: the ghost entered a sync-segment skip block, jumping
	// its induction state ahead to catch up with the main thread (Arg = pc).
	KindSyncSkip
	// KindPrefetch: a software prefetch issued (Arg = word address,
	// Level = where it was satisfied).
	KindPrefetch
	// KindFill is a span covering one in-flight cache fill, from issue to
	// data arrival (Arg = word address, Level = fill source).
	KindFill
	// KindROBStall is a span during which a context's reorder window was
	// full with an uncommittable head — the paper's figure-2 full-window
	// stall (Arg = pc of the blocking instruction).
	KindROBStall
	// KindGovKill: the adaptive governor retired a negative-benefit ghost
	// (fires on the ghost context at the decision's trigger cycle).
	KindGovKill
	// KindGovRespawn: the governor re-spawned the ghost with fresh
	// live-ins (Arg = helper id).
	KindGovRespawn
	// KindGovRetune: the governor republished the dynamic sync window
	// (Arg = new TooFar; emitted at a window boundary).
	KindGovRetune

	kindCount
)

// String names the kind (also the Chrome trace event name).
func (k Kind) String() string {
	switch k {
	case KindGhostSpawn:
		return "ghost-spawn"
	case KindGhostJoin:
		return "ghost-join"
	case KindGhostLife:
		return "ghost-active"
	case KindSerialize:
		return "serialize-throttle"
	case KindSyncSkip:
		return "sync-skip"
	case KindPrefetch:
		return "prefetch"
	case KindFill:
		return "fill"
	case KindROBStall:
		return "rob-stall"
	case KindGovKill:
		return "gov-kill"
	case KindGovRespawn:
		return "gov-respawn"
	case KindGovRetune:
		return "gov-retune"
	}
	return "unknown"
}

// Event is one trace record. Cycle is the event's (or span's start)
// simulation cycle; Dur is the span length in cycles, 0 for instants.
// Arg's meaning is per-kind (address or pc); Level is the cache level of
// memory events (0=L1 1=L2 2=LLC 3=DRAM).
type Event struct {
	Cycle int64
	Dur   int64
	Arg   int64
	Kind  Kind
	Core  uint8
	Ctx   uint8
	Level uint8
}

// Recorder is a preallocated ring buffer of events. Once full, new
// emissions overwrite the oldest events (Dropped reports how many were
// lost). The zero-cost off switch is a nil *Recorder, not an empty one:
// emission sites guard with a nil check and never call into a nil
// recorder.
type Recorder struct {
	buf []Event
	n   uint64 // total events emitted
}

// DefaultCapacity is the recorder size tools use unless told otherwise:
// large enough to hold every event of the evaluation-scale single-core
// workloads without wrapping (~40 MB).
const DefaultCapacity = 1 << 20

// NewRecorder allocates a recorder holding up to capacity events
// (capacity <= 0 selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Emit appends an event, overwriting the oldest once the buffer is full.
func (r *Recorder) Emit(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

// Emitted returns the total number of events emitted.
func (r *Recorder) Emitted() uint64 { return r.n }

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if c := uint64(len(r.buf)); r.n > c {
		return r.n - c
	}
	return 0
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if c := uint64(len(r.buf)); r.n > c {
		return len(r.buf)
	}
	return int(r.n)
}

// Events returns the retained events in emission order (oldest first).
// The slice is a copy; mutating it does not affect the recorder.
func (r *Recorder) Events() []Event {
	c := uint64(len(r.buf))
	if r.n <= c {
		return append([]Event(nil), r.buf[:r.n]...)
	}
	out := make([]Event, 0, c)
	start := r.n % c
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}
