package obs

import "ghostthread/internal/cache"

// MonitorRow is one line of the windowed-telemetry NDJSON stream: a
// WindowSample plus the run identity the harness tags it with. Bare
// gtrun streams (no tags) parse too — the tag fields stay empty.
type MonitorRow struct {
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Level    string `json:"level,omitempty"`
	WindowSample
}

// WindowSample is one per-core sample of the streaming telemetry
// time-series: the activity deltas of one W-cycle window, emitted at the
// window's closing flush. All counter fields are deltas over the window
// (not cumulative), so a sample stream can be consumed incrementally —
// the adaptive governor (internal/gov) and the NDJSON/gtmon surfaces
// both read samples one at a time.
//
// Samples are produced only at deterministic points — window boundaries
// the skipper never jumps over — so the stream is bit-identical across
// per-cycle and event-skip stepping (DESIGN.md §14).
type WindowSample struct {
	// Window is the zero-based window index; Start/End the cycle range
	// [Start, End) the sample covers. The final window of a run may be
	// shorter than W.
	Window int64 `json:"window"`
	Core   int   `json:"core"`
	Start  int64 `json:"start"`
	End    int64 `json:"end"`

	// Committed main-context instructions this window, and the resulting
	// IPC over the window length.
	Committed int64   `json:"committed"`
	IPC       float64 `json:"ipc"`

	// SerializeStall is the serialize-throttle stall cycles both contexts
	// accrued this window; the fraction normalises by the two contexts'
	// combined cycle budget (2×window length).
	SerializeStall     int64   `json:"serialize_stall"`
	SerializeStallFrac float64 `json:"serialize_stall_frac"`

	// Ghost-lead summary over the window's synchronization checks (ghost
	// iterations ahead of main; negative = behind). Count is 0 when the
	// ghost ran no sync check this window, in which case the other lead
	// fields are 0.
	GhostLeadCount int64   `json:"ghost_lead_count"`
	GhostLeadMean  float64 `json:"ghost_lead_mean"`
	GhostLeadMin   int64   `json:"ghost_lead_min"`
	GhostLeadMax   int64   `json:"ghost_lead_max"`
	GhostLeadP50   int64   `json:"ghost_lead_p50"`
	GhostLeadP95   int64   `json:"ghost_lead_p95"`
	GhostLeadP99   int64   `json:"ghost_lead_p99"`

	// Prefetch is the window's software-prefetch outcome deltas, with the
	// derived ratios: accuracy (useful / issued+redundant), coverage
	// (useful / (useful + demand loads that still went past L1)), and
	// timeliness (timely / useful).
	Prefetch     cache.PrefetchQuality `json:"prefetch"`
	PFAccuracy   float64               `json:"pf_accuracy"`
	PFCoverage   float64               `json:"pf_coverage"`
	PFTimeliness float64               `json:"pf_timeliness"`

	// DemandBeyondL1 counts demand loads satisfied past L1 this window
	// (the misses prefetching is trying to cover).
	DemandBeyondL1 int64 `json:"demand_beyond_l1"`

	// MSHR occupancy seen at each L1 miss allocation this window (average
	// and peak; 0 when no miss allocated), and the instantaneous main-
	// context load-queue depth at the flush cycle.
	MSHRAvg  float64 `json:"mshr_avg"`
	MSHRPeak int64   `json:"mshr_peak"`
	LQ       int     `json:"lq"`

	// HelperActive reports whether the core's ghost context was live at
	// the window's closing flush — the adaptive governor's precondition
	// for a kill and its cue for a re-spawn.
	HelperActive bool `json:"helper_active,omitempty"`

	// GovRespawned reports that the core executed one or more governor
	// re-spawns during this window (PC-synchronized re-seeds fire
	// autonomously at region-loop header crossings, between decision
	// points) — the governor resets its warmup and kill state on seeing
	// it, so the fresh ghost is judged as fresh.
	GovRespawned bool `json:"gov_respawned,omitempty"`

	// GovAction names the governor decision taken at this window's
	// boundary for this core ("kill", "respawn", "retune"; empty when the
	// governor is off or made no decision), with GovArg the decision's
	// argument (the new TooFar for a retune, the respawn count for a
	// respawn).
	GovAction string `json:"gov_action,omitempty"`
	GovArg    int64  `json:"gov_arg,omitempty"`
}

// WindowRecorder accumulates the per-event window statistics one core
// feeds between flushes: ghost-lead observations at sync checks and MSHR
// occupancy at miss allocations. It is fed by its core and drained only
// at window flushes. Like all observers it is observation-only: nothing
// the core computes depends on it.
type WindowRecorder struct {
	lead    Sketch
	leadSum int64
	leadMin int64
	leadMax int64

	mshrSum  int64
	mshrN    int64
	mshrPeak int64
}

// NewWindowRecorder returns an empty window recorder.
func NewWindowRecorder() *WindowRecorder { return &WindowRecorder{} }

// ObserveLead records one ghost-lead observation (sync check).
func (w *WindowRecorder) ObserveLead(v int64) {
	if w.lead.Count() == 0 || v < w.leadMin {
		w.leadMin = v
	}
	if w.lead.Count() == 0 || v > w.leadMax {
		w.leadMax = v
	}
	w.leadSum += v
	w.lead.Observe(v)
}

// ObserveMSHR records the in-use MSHR count at one L1 miss allocation.
func (w *WindowRecorder) ObserveMSHR(busy int) {
	w.mshrSum += int64(busy)
	w.mshrN++
	if int64(busy) > w.mshrPeak {
		w.mshrPeak = int64(busy)
	}
}

// Drain writes the accumulated event statistics into s and resets the
// recorder for the next window (keeping the sketch's allocations).
func (w *WindowRecorder) Drain(s *WindowSample) {
	if n := w.lead.Count(); n > 0 {
		s.GhostLeadCount = n
		s.GhostLeadMean = float64(w.leadSum) / float64(n)
		s.GhostLeadMin = w.leadMin
		s.GhostLeadMax = w.leadMax
		s.GhostLeadP50 = w.lead.Quantile(0.50)
		s.GhostLeadP95 = w.lead.Quantile(0.95)
		s.GhostLeadP99 = w.lead.Quantile(0.99)
	}
	if w.mshrN > 0 {
		s.MSHRAvg = float64(w.mshrSum) / float64(w.mshrN)
		s.MSHRPeak = w.mshrPeak
	}
	w.lead.Reset()
	w.leadSum, w.leadMin, w.leadMax = 0, 0, 0
	w.mshrSum, w.mshrN, w.mshrPeak = 0, 0, 0
}
