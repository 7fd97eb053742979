package cpu

import (
	"slices"

	"ghostthread/internal/cache"
)

// shadow.go — the dynamic shadow oracle, the runtime half of the
// translation validator (internal/analysis/transval.go). When attached,
// the core records every ghost-context prefetch address into a bounded
// shadow buffer and cross-checks it against the main context's demand
// stream, at cache-line granularity:
//
//   - Confirmed: the main thread demanded the prefetched line at some
//     point in the run (before or after the prefetch — agreement of the
//     address streams, not timeliness, is what is being checked).
//   - Divergent: the run ended and the main thread never demanded the
//     line — the ghost computed an address off the main thread's stream,
//     exactly the failure mode the static validator proves absent.
//   - Orphaned: the prefetch was evicted from the full shadow buffer
//     before any demand arrived; with the demand stream still unknown at
//     eviction time the prefetch is unjudgeable, which is reported
//     separately so a too-small buffer never masquerades as divergence.
//
// The taps sit in dispatch (execute-at-dispatch computes every address
// there), which runs only at stepped cycles — SkipTo never dispatches —
// so shadow counters are bit-identical under per-cycle stepping and the
// event-skip fast path. The oracle reads addresses and mutates only its
// own state: a shadowed run's timing, statistics, and memory image are
// bit-identical to an unshadowed one.

// ShadowStats counts ghost prefetches by shadow-oracle outcome.
type ShadowStats struct {
	Confirmed int64 `json:"confirmed"`
	Divergent int64 `json:"divergent"`
	Orphaned  int64 `json:"orphaned"`
}

// Add accumulates other into s.
func (s *ShadowStats) Add(other ShadowStats) {
	s.Confirmed += other.Confirmed
	s.Divergent += other.Divergent
	s.Orphaned += other.Orphaned
}

// Checked returns the number of prefetches that received a verdict.
func (s *ShadowStats) Checked() int64 { return s.Confirmed + s.Divergent + s.Orphaned }

// DefaultShadowBuffer is the pending-prefetch capacity of the shadow
// buffer: deep enough for any sane ghost lead.
const DefaultShadowBuffer = 4096

// shadowOracle holds the oracle state for one core.
type shadowOracle struct {
	demanded []uint64 // bitset of lines the main context demand-accessed, grown on demand
	pending  []int64  // FIFO of ghost prefetch lines awaiting a demand
	stats    ShadowStats
	drained  bool
}

// demand records a main-context demand access (load or atomic). Demand
// addresses are in range (dispatch faults an unmapped one first), so the
// line is never negative.
func (o *shadowOracle) demand(addr int64) {
	line := cache.LineOf(addr)
	w := int(line >> 6)
	if w >= len(o.demanded) {
		// Words past len were never written, so the re-slice exposes zeros.
		o.demanded = slices.Grow(o.demanded, w+1-len(o.demanded))[:w+1]
	}
	o.demanded[w] |= 1 << (uint64(line) & 63)
}

// isDemanded reports whether the main context demanded line. A negative
// line, or one beyond the highest demanded so far, reads as never
// demanded.
func (o *shadowOracle) isDemanded(line int64) bool {
	if line < 0 {
		return false
	}
	w := line >> 6
	return w < int64(len(o.demanded)) && o.demanded[w]&(1<<(uint64(line)&63)) != 0
}

// prefetch records a ghost-context prefetch of the raw (pre-clamp)
// address. Out-of-range addresses deliberately stay raw: the hardware
// drops them, but the oracle must still judge them — the main thread can
// never demand an unmapped line, so they surface as divergent.
func (o *shadowOracle) prefetch(addr int64) {
	line := cache.LineOf(addr)
	if o.isDemanded(line) {
		o.stats.Confirmed++
		return
	}
	o.pending = append(o.pending, line)
	if len(o.pending) > DefaultShadowBuffer {
		// Evict the oldest entry. A demand may still arrive for it later,
		// so the eviction is indeterminate, not divergent.
		head := o.pending[0]
		o.pending = o.pending[1:]
		if o.isDemanded(head) {
			o.stats.Confirmed++
		} else {
			o.stats.Orphaned++
		}
	}
}

// finalize judges the remaining pending prefetches against the complete
// demand stream. Idempotent; called when the run's statistics are read.
func (o *shadowOracle) finalize() {
	if o.drained {
		return
	}
	o.drained = true
	for _, line := range o.pending {
		if o.isDemanded(line) {
			o.stats.Confirmed++
		} else {
			o.stats.Divergent++
		}
	}
	o.pending = nil
}

// SetShadow attaches (or with nil detaches) a shadow oracle. Attach
// before running; Load preserves the attachment, so one oracle observes
// every program a core runs until it is detached.
func (c *Core) SetShadow(o *ShadowOracle) {
	if o == nil {
		c.shadow = nil
		return
	}
	c.shadow = o.impl
}

// ShadowOracle is the exported handle for attaching a shadow oracle to a
// core (opaque: all state lives behind it).
type ShadowOracle struct{ impl *shadowOracle }

// NewShadow builds a shadow oracle with a DefaultShadowBuffer-deep
// pending buffer.
func NewShadow() *ShadowOracle {
	return &ShadowOracle{impl: &shadowOracle{}}
}

// ShadowStats finalizes and returns the oracle's counters (zero when no
// oracle is attached).
func (c *Core) ShadowStats() ShadowStats {
	if c.shadow == nil {
		return ShadowStats{}
	}
	c.shadow.finalize()
	return c.shadow.stats
}
