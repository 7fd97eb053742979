package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestWindowRecorderDrain: Drain fills the sample's lead and MSHR
// summaries from the accumulated observations and resets for the next
// window.
func TestWindowRecorderDrain(t *testing.T) {
	w := NewWindowRecorder()
	for _, v := range []int64{10, -5, 30, 30, 0} {
		w.ObserveLead(v)
	}
	w.ObserveMSHR(3)
	w.ObserveMSHR(7)
	var s WindowSample
	w.Drain(&s)
	if s.GhostLeadCount != 5 || s.GhostLeadMin != -5 || s.GhostLeadMax != 30 {
		t.Fatalf("lead summary wrong: %+v", s)
	}
	if s.GhostLeadMean != 13 {
		t.Errorf("lead mean = %v, want 13", s.GhostLeadMean)
	}
	if s.GhostLeadP50 != 10 {
		t.Errorf("lead p50 = %d, want 10", s.GhostLeadP50)
	}
	if s.MSHRAvg != 5 || s.MSHRPeak != 7 {
		t.Errorf("mshr summary wrong: avg=%v peak=%d", s.MSHRAvg, s.MSHRPeak)
	}
	var next WindowSample
	w.Drain(&next)
	if next.GhostLeadCount != 0 || next.MSHRPeak != 0 {
		t.Fatalf("drain did not reset: %+v", next)
	}
}

// TestWindowSampleJSONRoundTrip: samples are the NDJSON wire format of
// gtrun/ghostbench and gtmon's input; field names must survive a round
// trip.
func TestWindowSampleJSONRoundTrip(t *testing.T) {
	in := WindowSample{
		Window: 3, Core: 1, Start: 60_000, End: 80_000,
		Committed: 1234, IPC: 0.0617,
		GhostLeadCount: 9, GhostLeadP95: 42,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out WindowSample
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed sample\n in: %+v\nout: %+v", in, out)
	}
}

// TestChromeTraceWindowsCounters: windowed samples export as Perfetto
// counter tracks that pass the validator, and the validator now rejects
// malformed counter events (the regression the satellite fixes: "C"
// events used to pass schema checks with no payload at all).
func TestChromeTraceWindowsCounters(t *testing.T) {
	events := []Event{
		{Cycle: 10, Dur: 5, Kind: KindSerialize, Core: 0, Ctx: 1},
	}
	windows := []WindowSample{
		{Window: 0, Core: 0, Start: 0, End: 100, IPC: 1.5, GhostLeadMean: 12},
		{Window: 1, Core: 0, Start: 100, End: 200, IPC: 0.5},
	}
	data, err := ChromeTraceWindows(events, windows, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(data); err != nil {
		t.Fatalf("counter-track export fails validation: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	counters := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Fatal("no counter events exported")
	}
}

// TestValidateChromeRejectsBadCounters: the regression test for the
// validator fix — counter events without args, with empty args, or with
// non-numeric series values must all be rejected.
func TestValidateChromeRejectsBadCounters(t *testing.T) {
	mk := func(eventJSON string) []byte {
		return []byte(`{"traceEvents":[` + eventJSON + `]}`)
	}
	for _, tc := range []struct{ name, event string }{
		{"missing args", `{"name":"ipc","ph":"C","ts":1,"pid":0,"tid":3}`},
		{"empty args", `{"name":"ipc","ph":"C","ts":1,"pid":0,"tid":3,"args":{}}`},
		{"non-numeric series", `{"name":"ipc","ph":"C","ts":1,"pid":0,"tid":3,"args":{"v":"fast"}}`},
		{"args not object", `{"name":"ipc","ph":"C","ts":1,"pid":0,"tid":3,"args":[1]}`},
	} {
		if err := ValidateChrome(mk(tc.event)); err == nil {
			t.Errorf("%s: validator accepted malformed counter event", tc.name)
		}
	}
	good := mk(`{"name":"ipc","ph":"C","ts":1,"pid":0,"tid":3,"args":{"v":1.5}}`)
	if err := ValidateChrome(good); err != nil {
		t.Errorf("validator rejected well-formed counter event: %v", err)
	}
}
