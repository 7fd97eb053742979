package mem

import "ghostthread/internal/fault"

// ControllerConfig parameterises the DRAM timing model.
type ControllerConfig struct {
	// AccessLatency is the unloaded DRAM access latency in cycles
	// (row access + on-chip traversal), added on top of queueing.
	AccessLatency int64
	// CyclesPerLine is the minimum spacing between line transfers the
	// channel can sustain; 1/CyclesPerLine lines per cycle is the peak
	// bandwidth.
	CyclesPerLine int64
	// PressureLinesPerKCycle is synthetic bandwidth pressure: how many
	// line transfers per 1000 cycles are consumed by the busy-server
	// pressure agents (paper §6.3, membw). Zero means an idle server.
	PressureLinesPerKCycle int64
}

// DefaultControllerConfig returns the idle-server DRAM model used
// throughout the evaluation.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		AccessLatency: 200,
		CyclesPerLine: 4,
	}
}

// slot ring sizing: the channel books transfers into discrete slots of
// CyclesPerLine cycles. The ring tracks claims this far ahead of the
// earliest live request; a transfer booked further out than that is
// latency-bound, not bandwidth-bound, and goes unqueued.
const (
	slotRingBits = 12
	slotRingLen  = 1 << slotRingBits
	slotRingMask = slotRingLen - 1
)

// Controller models the shared memory channel. Time is divided into
// slots of CyclesPerLine cycles, each carrying at most one line
// transfer; a transfer requested at cycle t claims the first free slot
// at or after t. All cores (and the pressure agents) book through the
// same slot ring, so DRAM bandwidth contention between SMT threads,
// cores, and background load emerges from slot occupancy.
//
// Reservation (rather than a scalar next-free horizon) makes the model
// robust to requests arriving out of time order: the analytic core fixes
// a dependent chain's fill times the moment the chain dispatches, so a
// request for cycle 500 can reach the controller before an independent
// request for cycle 300. Each claims its own slot; neither queues behind
// the other. With a monotone request stream the model reduces exactly to
// the scalar-horizon one: back-to-back requests serialise at
// CyclesPerLine spacing.
type Controller struct {
	cfg ControllerConfig

	// slotStamp[k & slotRingMask] == k marks absolute slot k claimed.
	// Stale stamps (a slot index from a lapped, past window) read as
	// free, so the ring never needs clearing as time advances.
	slotStamp [slotRingLen]int64

	// Latency jitter fault injection (jitterMax == 0 = off). The stream
	// draws once per scheduled transfer — inside Schedule, the only place
	// controller state may change — so the jitter schedule is a function
	// of the request sequence alone and composes with event skipping.
	jitterMax int64
	jitter    fault.Stream

	// Transfers counts demand line transfers (for bandwidth stats and
	// the energy model).
	Transfers int64
}

// NewController returns a Controller with the given configuration.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.CyclesPerLine <= 0 {
		cfg.CyclesPerLine = 1
	}
	c := &Controller{cfg: cfg}
	for i := range c.slotStamp {
		c.slotStamp[i] = -1
	}
	return c
}

// pressureBusy reports whether absolute slot k is consumed by the
// synthetic background traffic: pressure occupies exactly the slots
// where the cumulative pressure-line count ticks over, spreading
// PressureLinesPerKCycle line transfers evenly across every 1000 cycles.
// Being a pure function of the slot index, the pressure schedule is
// identical no matter when or in what order demand requests arrive.
func (c *Controller) pressureBusy(k int64) bool {
	p := c.cfg.PressureLinesPerKCycle * c.cfg.CyclesPerLine
	if p <= 0 {
		return false
	}
	if p >= 1000 {
		p = 999 // saturated channel: leave a trickle so demand still drains
	}
	return k*p/1000 != (k-1)*p/1000
}

// Schedule books a line transfer requested at cycle now and returns the
// cycle at which the data arrives at the LLC boundary. Queueing delay
// accumulates when requests contend for the same slots, including slots
// consumed by pressure agents.
func (c *Controller) Schedule(now int64) int64 {
	cpl := c.cfg.CyclesPerLine
	k0 := now / cpl
	k := k0
	for k-k0 < slotRingLen {
		if !c.pressureBusy(k) && c.slotStamp[k&slotRingMask] != k {
			c.slotStamp[k&slotRingMask] = k
			break
		}
		k++
	}
	c.Transfers++
	start := max(now, k*cpl)
	lat := c.cfg.AccessLatency
	if c.jitterMax > 0 {
		lat += c.jitter.Intn(c.jitterMax + 1)
	}
	return start + lat
}

// SetJitter enables (max > 0) uniform [0, max] extra cycles on every
// transfer's access latency, drawn from s — row-buffer state, refresh, and
// scheduling noise the fixed-latency model abstracts away.
func (c *Controller) SetJitter(max int64, s fault.Stream) {
	c.jitterMax = max
	c.jitter = s
}
