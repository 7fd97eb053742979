package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Track ids inside one core's process group. Contexts 0 and 1 map to
// tracks 0 and 1; memory fills get their own track so long DRAM spans do
// not visually swallow the pipeline events of the context that issued
// them.
const (
	trackMain    = 0
	trackGhost   = 1
	trackMem     = 2
	trackCounter = 3
)

// levelName names a cache level for event args.
func levelName(l uint8) string {
	switch l {
	case 0:
		return "L1"
	case 1:
		return "L2"
	case 2:
		return "LLC"
	case 3:
		return "DRAM"
	}
	return fmt.Sprintf("level%d", l)
}

// chromeEvent is one Chrome trace-event object. The subset emitted here
// (X complete spans, i instants, M metadata) is what Perfetto's legacy
// JSON importer consumes; ts/dur are in "microseconds" which this
// exporter populates with simulation cycles directly — absolute units do
// not matter for inspecting interleavings.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       map[string]string
}

// ChromeTraceWindows converts recorded events into Chrome trace-event
// JSON. Each core becomes a process (pid = core id) with three named
// tracks: "main" (context 0), "ghost" (context 1), and "mem" (in-flight
// fills). Events within a track are sorted by start cycle, so ts is
// monotonic per track — ValidateChrome relies on that. label names the
// trace in the viewer (typically "workload/variant").
//
// windows (nil for none) adds Perfetto counter tracks built from
// windowed telemetry samples: per core, one "C" counter event per window
// for ghost lead, IPC, serialize-stall fraction, MSHR occupancy, and
// prefetch accuracy, timestamped at the window start so the counter
// steps render aligned with the span tracks of the same cycles.
func ChromeTraceWindows(events []Event, windows []WindowSample, label string) ([]byte, error) {
	var out []chromeEvent

	cores := map[uint8]bool{}
	for _, e := range events {
		cores[e.Core] = true
	}
	for _, w := range windows {
		cores[uint8(w.Core)] = true
	}
	if len(cores) == 0 {
		cores[0] = true
	}
	for core := range cores {
		pid := int(core)
		out = append(out,
			meta("process_name", pid, 0, fmt.Sprintf("core %d (%s)", pid, label)),
			meta("thread_name", pid, trackMain, "main"),
			meta("thread_name", pid, trackGhost, "ghost"),
			meta("thread_name", pid, trackMem, "mem"),
		)
	}

	for _, e := range events {
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  "sim",
			TS:   e.Cycle,
			PID:  int(e.Core),
			TID:  int(e.Ctx),
		}
		switch e.Kind {
		case KindGhostSpawn:
			ce.TID = trackMain
			ce.Args = map[string]any{"helper": e.Arg}
		case KindGhostJoin:
			ce.TID = trackMain
		case KindGhostLife:
			ce.TID = trackGhost
		case KindSerialize, KindROBStall:
			ce.Args = map[string]any{"pc": e.Arg}
		case KindSyncSkip:
			ce.Args = map[string]any{"pc": e.Arg}
		case KindPrefetch:
			ce.Args = map[string]any{"addr": e.Arg, "level": levelName(e.Level)}
		case KindFill:
			ce.TID = trackMem
			ce.Name = levelName(e.Level) + "-fill"
			ce.Args = map[string]any{"addr": e.Arg, "ctx": e.Ctx}
		}
		if e.Dur > 0 {
			ce.Phase = "X"
			d := e.Dur
			ce.Dur = &d
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		out = append(out, ce)
	}

	for _, w := range windows {
		counters := []struct {
			name string
			args map[string]any
		}{
			{"ghost-lead", map[string]any{"mean": w.GhostLeadMean, "p95": w.GhostLeadP95}},
			{"ipc", map[string]any{"ipc": w.IPC}},
			{"serialize-stall", map[string]any{"frac": w.SerializeStallFrac}},
			{"mshr", map[string]any{"avg": w.MSHRAvg, "peak": w.MSHRPeak}},
			{"pf-accuracy", map[string]any{"accuracy": w.PFAccuracy, "coverage": w.PFCoverage}},
		}
		for _, c := range counters {
			out = append(out, chromeEvent{
				Name:  c.name,
				Cat:   "telemetry",
				Phase: "C",
				TS:    w.Start,
				PID:   w.Core,
				TID:   trackCounter,
				Args:  c.args,
			})
		}
	}

	// Metadata first, then per-track monotonic ts (stable to preserve
	// emission order of same-cycle events).
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if (a.Phase == "M") != (b.Phase == "M") {
			return a.Phase == "M"
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.TS < b.TS
	})
	return json.MarshalIndent(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"}, "", " ")
}

func meta(name string, pid, tid int, value string) chromeEvent {
	return chromeEvent{
		Name:  name,
		Phase: "M",
		PID:   pid,
		TID:   tid,
		Args:  map[string]any{"name": value},
	}
}

// ValidateChrome checks data against the trace-event schema subset this
// package emits: a top-level object with a traceEvents array, every
// event carrying name/ph/pid/tid, a known phase, a non-negative dur on
// complete events, numeric series values in the args of counter ("C")
// events, and — per (pid, tid) track — non-decreasing ts. It is the
// check behind `make trace-smoke` and `gttrace -validate`.
func ValidateChrome(data []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	lastTS := map[[2]int]int64{}
	for i, ev := range doc.TraceEvents {
		var name, ph string
		if err := requireString(ev, "name", &name); err != nil {
			return fmt.Errorf("obs: event %d: %w", i, err)
		}
		if err := requireString(ev, "ph", &ph); err != nil {
			return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
		}
		var pid, tid int64
		if err := requireInt(ev, "pid", &pid); err != nil {
			return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
		}
		if err := requireInt(ev, "tid", &tid); err != nil {
			return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
		}
		switch ph {
		case "M":
			continue // metadata carries no timestamp
		case "X", "i", "I", "C", "B", "E":
		default:
			return fmt.Errorf("obs: event %d (%s): unknown phase %q", i, name, ph)
		}
		var ts int64
		if err := requireInt(ev, "ts", &ts); err != nil {
			return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
		}
		if ph == "X" {
			var dur int64
			if err := requireInt(ev, "dur", &dur); err != nil {
				return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
			}
			if dur < 0 {
				return fmt.Errorf("obs: event %d (%s): negative dur %d", i, name, dur)
			}
		}
		if ph == "C" {
			// A counter event's args are its series values: Perfetto drops
			// the event silently when args are absent or non-numeric, so
			// schema-check what the viewer would discard.
			raw, ok := ev["args"]
			if !ok {
				return fmt.Errorf("obs: event %d (%s): counter event missing args", i, name)
			}
			var series map[string]json.Number
			if err := json.Unmarshal(raw, &series); err != nil {
				return fmt.Errorf("obs: event %d (%s): counter args must be an object of numeric series: %w", i, name, err)
			}
			if len(series) == 0 {
				return fmt.Errorf("obs: event %d (%s): counter event has no series values", i, name)
			}
		}
		track := [2]int{int(pid), int(tid)}
		if prev, ok := lastTS[track]; ok && ts < prev {
			return fmt.Errorf("obs: event %d (%s): ts %d goes backwards on track pid=%d tid=%d (previous %d)",
				i, name, ts, pid, tid, prev)
		}
		lastTS[track] = ts
	}
	return nil
}

func requireString(ev map[string]json.RawMessage, key string, out *string) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing required key %q", key)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("key %q is not a string", key)
	}
	if *out == "" && key == "name" {
		return fmt.Errorf("empty name")
	}
	return nil
}

func requireInt(ev map[string]json.RawMessage, key string, out *int64) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing required key %q", key)
	}
	var f float64
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("key %q is not a number", key)
	}
	*out = int64(f)
	return nil
}
