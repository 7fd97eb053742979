package sim_test

// window_test.go — the windowed-telemetry differential suite. Telemetry
// must be observation only (a windowed run's Result is bit-identical to
// the unwindowed run's, in both stepping modes), the sample stream
// itself must be bit-identical across stepping modes, and the full
// observation stack must leave a multi-core run untouched.

import (
	"reflect"
	"testing"

	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// windowRun executes workload/variant with the given stepping and
// telemetry knobs and returns the Result and the window samples its
// sink received.
func windowRun(t *testing.T, workload, variant string, cycleStep bool, windowCycles int64) (sim.Result, []obs.WindowSample) {
	t.Helper()
	build, err := workloads.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	// Sync.Trace makes the ghost publish its counter (a program change),
	// so it is held constant across every arm of the differential.
	opts := workloads.ProfileOptions()
	opts.Sync.Trace = true
	inst := build(opts)
	v := inst.VariantByName(variant)
	if v == nil {
		t.Fatalf("%s has no %s variant", workload, variant)
	}
	cfg := sim.DefaultConfig()
	cfg.CycleStep = cycleStep
	cfg.Telemetry.WindowCycles = windowCycles
	cfg.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
	var windows []obs.WindowSample
	cfg.Telemetry.Sink = func(ws obs.WindowSample) { windows = append(windows, ws) }
	res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
	if err != nil {
		t.Fatalf("%s/%s (cycleStep=%v W=%d): %v", workload, variant, cycleStep, windowCycles, err)
	}
	if err := inst.CheckFor(variant)(inst.Mem); err != nil {
		t.Fatalf("%s/%s (cycleStep=%v W=%d): check: %v", workload, variant, cycleStep, windowCycles, err)
	}
	return res, windows
}

// TestWindowingDoesNotPerturbResult: enabling windowed telemetry must
// leave the whole Result bit-identical, on both the per-cycle reference
// loop and the event-skip fast path (whose skip targets the window
// boundaries cap).
func TestWindowingDoesNotPerturbResult(t *testing.T) {
	for _, tc := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
	} {
		for _, cycleStep := range []bool{true, false} {
			off, _ := windowRun(t, tc.workload, tc.variant, cycleStep, 0)
			on, windows := windowRun(t, tc.workload, tc.variant, cycleStep, 20_000)
			if len(windows) == 0 {
				t.Fatalf("%s/%s (cycleStep=%v): windowed run emitted no samples; test proves nothing",
					tc.workload, tc.variant, cycleStep)
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("%s/%s (cycleStep=%v): windowing changed sim.Result\n off: %+v\n  on: %+v",
					tc.workload, tc.variant, cycleStep, off, on)
			}
		}
	}
}

// TestWindowsIdenticalAcrossStepModes: the sample stream itself — every
// field of every window — must be the same whether the simulator stepped
// every cycle or skipped quiescent spans.
func TestWindowsIdenticalAcrossStepModes(t *testing.T) {
	for _, tc := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
	} {
		_, ref := windowRun(t, tc.workload, tc.variant, true, 20_000)
		_, opt := windowRun(t, tc.workload, tc.variant, false, 20_000)
		if !reflect.DeepEqual(ref, opt) {
			n := min(len(ref), len(opt))
			for i := 0; i < n; i++ {
				if !reflect.DeepEqual(ref[i], opt[i]) {
					t.Errorf("%s/%s: first divergent sample at %d\n ref: %+v\nskip: %+v",
						tc.workload, tc.variant, i, ref[i], opt[i])
					break
				}
			}
			t.Fatalf("%s/%s: window streams differ (ref %d samples, skip %d)",
				tc.workload, tc.variant, len(ref), len(opt))
		}
		if ref[0].GhostLeadCount == 0 && len(ref) > 1 && ref[1].GhostLeadCount == 0 {
			t.Errorf("%s/%s: no ghost-lead observations in early windows; check Sync.Trace wiring",
				tc.workload, tc.variant)
		}
	}
}

// TestGhostLeadEmptyWithoutCounterAddr: with no GhostCounterAddr there is
// no ghost count to compare the main counter against, so the lead series
// must stay empty even though the ghost runs sync checks every window.
func TestGhostLeadEmptyWithoutCounterAddr(t *testing.T) {
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}
	inst := build(workloads.ProfileOptions())
	v := inst.VariantByName("ghost")
	cfg := sim.DefaultConfig()
	cfg.Telemetry.WindowCycles = 20_000
	var windows []obs.WindowSample
	cfg.Telemetry.Sink = func(ws obs.WindowSample) { windows = append(windows, ws) }
	if _, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers); err != nil {
		t.Fatal(err)
	}
	if len(windows) == 0 {
		t.Fatal("no window samples; test proves nothing")
	}
	for _, ws := range windows {
		if ws.GhostLeadCount != 0 {
			t.Fatalf("window %d: %d ghost-lead observations (min %d) with no counter address",
				ws.Window, ws.GhostLeadCount, ws.GhostLeadMin)
		}
	}
}

// TestWindowSinkStreamsSamples: the Sink callback receives one sample
// per window, in window order, and the windows tile the run: each starts
// where the previous one ended, full windows end on a multiple of W, and
// the partial tail window reaches the end of the run.
func TestWindowSinkStreamsSamples(t *testing.T) {
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}
	inst := build(workloads.ProfileOptions())
	v := inst.VariantByName("ghost")
	cfg := sim.DefaultConfig()
	cfg.Telemetry.WindowCycles = 20_000
	var streamed []obs.WindowSample
	cfg.Telemetry.Sink = func(ws obs.WindowSample) { streamed = append(streamed, ws) }
	res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 {
		t.Fatal("sink received no samples")
	}
	var end int64
	for i, ws := range streamed {
		if ws.Window != int64(i) || ws.Core != 0 || ws.Start != end {
			t.Fatalf("sample %d: window %d core %d starts at %d, want window %d core 0 starting at %d",
				i, ws.Window, ws.Core, ws.Start, i, end)
		}
		if ws.End%cfg.Telemetry.WindowCycles != 0 && i != len(streamed)-1 {
			t.Fatalf("sample %d ends at %d, not on a window boundary", i, ws.End)
		}
		end = ws.End
	}
	if end < res.Cycles {
		t.Errorf("last window ends at %d, before the run ended at %d", end, res.Cycles)
	}
}

// multiObserved runs the 4-core MultiGhost PageRank with the given
// stepping mode, optionally (window > 0) with the full observation stack
// attached: one event recorder shared by every core, and windowed
// telemetry every window cycles. Its sink checks that every unfinished
// core has been brought to the boundary cycle before the flush. It
// returns the Result, the window samples, the final memory image, and
// the recorded events.
func multiObserved(t *testing.T, window int64, cycleStep bool) (sim.Result, []obs.WindowSample, []int64, []obs.Event) {
	t.Helper()
	inst, err := workloads.NewMulti("pr", "kron", 4, workloads.MultiGhost, workloads.ProfileOptions())
	if err != nil {
		t.Fatal(err)
	}
	observed := window > 0
	cfg := sim.DefaultConfig()
	cfg.Cores = inst.Cores
	cfg.CycleStep = cycleStep
	var s *sim.System
	var windows []obs.WindowSample
	if observed {
		cfg.Telemetry.WindowCycles = window
		lagged := 0
		cfg.Telemetry.Sink = func(ws obs.WindowSample) {
			windows = append(windows, ws)
			for i := 0; i < s.Cores(); i++ {
				if c := s.Core(i); !c.Done() && c.Now() != ws.End && lagged < 5 {
					lagged++
					t.Errorf("window %d (cycleStep=%v): unfinished core %d at cycle %d at flush, want %d",
						ws.Window, cycleStep, i, c.Now(), ws.End)
				}
			}
		}
	}
	s = sim.New(cfg, inst.Mem)
	for c := range inst.Per {
		s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
	}
	var rec *obs.Recorder
	if observed {
		rec = obs.NewRecorder(obs.DefaultCapacity)
		for i := 0; i < inst.Cores; i++ {
			s.SetTrace(i, rec)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("pr.kron multighost (window=%d cycleStep=%v): %v", window, cycleStep, err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Fatalf("pr.kron multighost (window=%d cycleStep=%v): check: %v", window, cycleStep, err)
	}
	var events []obs.Event
	if observed {
		events = rec.Events()
	}
	return res, windows, snapshot(inst.Mem), events
}

// TestMultiCoreObservationPurity: a fully observed multi-core run (shared
// trace recorder, windowed telemetry) must leave Result and the final
// memory image bit-identical to the unobserved run, while actually
// observing something.
func TestMultiCoreObservationPurity(t *testing.T) {
	refRes, _, refMem, _ := multiObserved(t, 0, false)
	obsRes, windows, obsMem, events := multiObserved(t, 50_000, false)
	if !reflect.DeepEqual(refRes, obsRes) {
		t.Errorf("observed Result diverged from unobserved\n ref: %+v\n got: %+v",
			refRes, obsRes)
	}
	if !reflect.DeepEqual(refMem, obsMem) {
		t.Error("observed memory image diverged from unobserved")
	}
	if len(windows) == 0 {
		t.Error("observed run emitted no window samples; test proves nothing")
	}
	cores := map[uint8]bool{}
	for _, e := range events {
		cores[e.Core] = true
	}
	if len(cores) != len(refRes.CoreCycles) {
		t.Errorf("shared recorder saw events from %d of %d cores", len(cores), len(refRes.CoreCycles))
	}
}

// TestMultiCoreObservationAcrossStepModes: a fully observed 4-core run
// with a short window must produce the same Result, window samples,
// memory image and shared-recorder event stream whether every core is
// stepped every cycle or each core only when it has work. The short,
// odd window puts many flushes where some cores lag the machine clock,
// and multiObserved's sink checks they were caught up first.
func TestMultiCoreObservationAcrossStepModes(t *testing.T) {
	const window = 997
	refRes, refWindows, refMem, refEvents := multiObserved(t, window, true)
	res, windows, img, events := multiObserved(t, window, false)
	if len(refWindows) == 0 || len(refEvents) == 0 {
		t.Fatal("reference run observed nothing; test proves nothing")
	}
	if !reflect.DeepEqual(refRes, res) {
		t.Errorf("per-core skipping changed the observed Result\n ref: %+v\n got: %+v", refRes, res)
	}
	if !reflect.DeepEqual(refWindows, windows) {
		t.Errorf("per-core skipping changed the window samples (%d vs %d)", len(refWindows), len(windows))
	}
	if !reflect.DeepEqual(refMem, img) {
		t.Error("per-core skipping changed the final memory image")
	}
	if !reflect.DeepEqual(refEvents, events) {
		t.Errorf("per-core skipping changed the shared event stream (%d vs %d events)", len(refEvents), len(events))
	}
}
