package sim_test

import (
	"reflect"
	"testing"

	"ghostthread/internal/cpu"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// traceRun executes one workload/variant with or without observability
// attached and returns the run Result, the core-0 statistics snapshot,
// and the recorded events (nil when untraced).
func traceRun(t *testing.T, workload, variant string, cycleStep, traced bool) (sim.Result, cpu.Stats, []obs.Event) {
	t.Helper()
	build, err := workloads.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	inst := build(workloads.ProfileOptions())
	v := inst.VariantByName(variant)
	if v == nil {
		t.Fatalf("%s has no %s variant", workload, variant)
	}
	cfg := sim.DefaultConfig()
	cfg.CycleStep = cycleStep
	s := sim.New(cfg, inst.Mem)
	s.Load(0, v.Main, v.Helpers)
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(obs.DefaultCapacity)
		s.SetTrace(0, rec)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("%s/%s (CycleStep=%v traced=%v): %v", workload, variant, cycleStep, traced, err)
	}
	if err := inst.CheckFor(variant)(inst.Mem); err != nil {
		t.Fatalf("%s/%s (CycleStep=%v traced=%v): result check: %v", workload, variant, cycleStep, traced, err)
	}
	var events []obs.Event
	if traced {
		if rec.Dropped() > 0 {
			t.Fatalf("%s/%s: recorder wrapped (%d dropped); raise capacity so the suite sees every event",
				workload, variant, rec.Dropped())
		}
		events = rec.Events()
	}
	return res, s.Core(0).Stats(), events
}

// TestTracingDoesNotPerturbStats is the differential bar: attaching the
// event recorder must leave every statistic bit-identical — on both the
// per-cycle reference loop and the event-skip fast path. Observability
// is observation only.
func TestTracingDoesNotPerturbStats(t *testing.T) {
	for _, tc := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
		{"camel", "swpf"},
	} {
		for _, cycleStep := range []bool{true, false} {
			offRes, offStats, _ := traceRun(t, tc.workload, tc.variant, cycleStep, false)
			onRes, onStats, events := traceRun(t, tc.workload, tc.variant, cycleStep, true)
			if !reflect.DeepEqual(offRes, onRes) {
				t.Errorf("%s/%s (CycleStep=%v): tracing changed sim.Result\n off: %+v\n  on: %+v",
					tc.workload, tc.variant, cycleStep, offRes, onRes)
			}
			if !reflect.DeepEqual(offStats, onStats) {
				t.Errorf("%s/%s (CycleStep=%v): tracing changed cpu.Stats\n off: %+v\n  on: %+v",
					tc.workload, tc.variant, cycleStep, offStats, onStats)
			}
			if len(events) == 0 {
				t.Errorf("%s/%s (CycleStep=%v): traced run recorded no events; test proves nothing",
					tc.workload, tc.variant, cycleStep)
			}
		}
	}
}

// TestTraceIdenticalAcrossStepModes: the event stream itself — not just
// the aggregate statistics — must be the same whether the simulator
// stepped every cycle or skipped quiescent spans. Span events carry
// absolute start + duration, which is what makes this hold.
func TestTraceIdenticalAcrossStepModes(t *testing.T) {
	for _, tc := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
	} {
		_, _, ref := traceRun(t, tc.workload, tc.variant, true, true)
		_, _, opt := traceRun(t, tc.workload, tc.variant, false, true)
		if !reflect.DeepEqual(ref, opt) {
			n := len(ref)
			if len(opt) < n {
				n = len(opt)
			}
			for i := 0; i < n; i++ {
				if ref[i] != opt[i] {
					t.Errorf("%s/%s: first divergent event at %d\n ref: %+v\nskip: %+v",
						tc.workload, tc.variant, i, ref[i], opt[i])
					break
				}
			}
			t.Fatalf("%s/%s: event streams differ (ref %d events, skip %d)",
				tc.workload, tc.variant, len(ref), len(opt))
		}
	}
}

// TestSerializeSpanSumMatchesCounter proves the acceptance-criteria
// invariant: the serialize-throttle span durations in the trace sum to
// exactly the SerializeStall counter, including the partial span of a
// helper killed by join while still serialize-blocked.
func TestSerializeSpanSumMatchesCounter(t *testing.T) {
	for _, cycleStep := range []bool{true, false} {
		_, stats, events := traceRun(t, "camel", "ghost", cycleStep, true)
		var spanSum int64
		var spans int
		for _, e := range events {
			if e.Kind == obs.KindSerialize {
				spanSum += e.Dur
				spans++
			}
		}
		total := stats.SerializeStall[0] + stats.SerializeStall[1]
		if spanSum != total {
			t.Errorf("CycleStep=%v: serialize spans sum to %d, SerializeStall counter is %d",
				cycleStep, spanSum, total)
		}
		if spans == 0 || total == 0 {
			t.Errorf("CycleStep=%v: no serialize activity (%d spans, %d stall); test proves nothing",
				cycleStep, spans, total)
		}
	}
}

// TestGhostLeadWindowsPopulate: with SyncParams.Trace on (the ghost
// publishes its iteration count), the window stream carries all three
// telemetry taps: sync checks observe the ghost's lead, the windows'
// serialize stalls sum to the core's counters, and MSHR occupancy is
// sampled at miss allocations.
func TestGhostLeadWindowsPopulate(t *testing.T) {
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}
	opts := workloads.ProfileOptions()
	opts.Sync.Trace = true
	inst := build(opts)
	v := inst.VariantByName("ghost")
	cfg := sim.DefaultConfig()
	cfg.Telemetry.WindowCycles = 20_000
	cfg.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
	s := sim.New(cfg, inst.Mem)
	s.Load(0, v.Main, v.Helpers)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var stall, leads, mshrPeak int64
	for _, ws := range res.Windows {
		stall += ws.SerializeStall
		leads += ws.GhostLeadCount
		mshrPeak = max(mshrPeak, ws.MSHRPeak)
	}
	c := s.Core(0)
	if want := c.SerializeStall(0) + c.SerializeStall(1); stall != want {
		t.Errorf("windows' serialize stalls sum to %d, core counter is %d", stall, want)
	}
	if leads == 0 {
		t.Error("no ghost-lead observations; sync checks were not sampled")
	}
	if mshrPeak == 0 {
		t.Error("no window saw MSHR occupancy")
	}
}

// TestChromeExportFromRun: a real run's trace exports to Chrome JSON
// that passes the schema validator (the programmatic version of `make
// trace-smoke`).
func TestChromeExportFromRun(t *testing.T) {
	_, _, events := traceRun(t, "camel", "ghost", false, true)
	data, err := obs.ChromeTraceWindows(events, nil, "camel/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChrome(data); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
}
