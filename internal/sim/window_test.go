package sim_test

// window_test.go — the windowed-telemetry differential suite. Telemetry
// must be observation only (a windowed run's Result is bit-identical
// minus Result.Windows, in both stepping modes), the sample stream
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
// telemetry knobs and returns the Result and core-0 window samples.
func windowRun(t *testing.T, workload, variant string, cycleStep bool, windowCycles int64) sim.Result {
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
	res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
	if err != nil {
		t.Fatalf("%s/%s (cycleStep=%v W=%d): %v", workload, variant, cycleStep, windowCycles, err)
	}
	if err := inst.CheckFor(variant)(inst.Mem); err != nil {
		t.Fatalf("%s/%s (cycleStep=%v W=%d): check: %v", workload, variant, cycleStep, windowCycles, err)
	}
	return res
}

// stripWindows returns res with the telemetry fields zeroed, for
// comparing everything else bit-for-bit.
func stripWindows(res sim.Result) sim.Result {
	res.Windows = nil
	return res
}

// TestWindowingDoesNotPerturbResult: enabling windowed telemetry must
// leave every other Result field bit-identical, on both the per-cycle
// reference loop and the event-skip fast path (whose skip targets the
// window boundaries cap).
func TestWindowingDoesNotPerturbResult(t *testing.T) {
	for _, tc := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
	} {
		for _, cycleStep := range []bool{true, false} {
			off := windowRun(t, tc.workload, tc.variant, cycleStep, 0)
			on := windowRun(t, tc.workload, tc.variant, cycleStep, 20_000)
			if len(on.Windows) == 0 {
				t.Fatalf("%s/%s (cycleStep=%v): windowed run emitted no samples; test proves nothing",
					tc.workload, tc.variant, cycleStep)
			}
			if !reflect.DeepEqual(off, stripWindows(on)) {
				t.Errorf("%s/%s (cycleStep=%v): windowing changed sim.Result\n off: %+v\n  on: %+v",
					tc.workload, tc.variant, cycleStep, off, stripWindows(on))
			}
		}
	}
}

// TestWindowsIdenticalAcrossStepModes: the sample stream itself — every
// field of every window — must be the same whether the simulator stepped
// every cycle or skipped quiescent spans, and a streaming Sink must see
// exactly the samples Result.Windows accumulates, in order.
func TestWindowsIdenticalAcrossStepModes(t *testing.T) {
	for _, tc := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
	} {
		ref := windowRun(t, tc.workload, tc.variant, true, 20_000)
		opt := windowRun(t, tc.workload, tc.variant, false, 20_000)
		if !reflect.DeepEqual(ref.Windows, opt.Windows) {
			n := min(len(ref.Windows), len(opt.Windows))
			for i := 0; i < n; i++ {
				if !reflect.DeepEqual(ref.Windows[i], opt.Windows[i]) {
					t.Errorf("%s/%s: first divergent sample at %d\n ref: %+v\nskip: %+v",
						tc.workload, tc.variant, i, ref.Windows[i], opt.Windows[i])
					break
				}
			}
			t.Fatalf("%s/%s: window streams differ (ref %d samples, skip %d)",
				tc.workload, tc.variant, len(ref.Windows), len(opt.Windows))
		}
		if ref.Windows[0].GhostLeadCount == 0 && len(ref.Windows) > 1 && ref.Windows[1].GhostLeadCount == 0 {
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
	res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no window samples; test proves nothing")
	}
	for _, ws := range res.Windows {
		if ws.GhostLeadCount != 0 {
			t.Fatalf("window %d: %d ghost-lead observations (min %d) with no counter address",
				ws.Window, ws.GhostLeadCount, ws.GhostLeadMin)
		}
	}
}

// TestWindowSinkStreamsSamples: the Sink callback receives every sample
// as it is flushed, in the same order Result.Windows records them.
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
	if !reflect.DeepEqual(streamed, res.Windows) {
		t.Fatalf("sink stream (%d samples) != Result.Windows (%d)", len(streamed), len(res.Windows))
	}
}

// multiObserved runs the 4-core MultiGhost PageRank, optionally with the
// full observation stack attached: one event recorder shared by every
// core, and windowed telemetry. It returns the
// Result, the final memory image, and the recorded events.
func multiObserved(t *testing.T, observed bool) (sim.Result, []int64, []obs.Event) {
	t.Helper()
	inst, err := workloads.NewMulti("pr", "kron", 4, workloads.MultiGhost, workloads.ProfileOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Cores = inst.Cores
	if observed {
		cfg.Telemetry.WindowCycles = 50_000
	}
	s := sim.New(cfg, inst.Mem)
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
		t.Fatalf("pr.kron multighost (observed=%v): %v", observed, err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Fatalf("pr.kron multighost (observed=%v): check: %v", observed, err)
	}
	var events []obs.Event
	if observed {
		events = rec.Events()
	}
	return res, snapshot(inst.Mem), events
}

// TestMultiCoreObservationPurity: a fully observed multi-core run (shared
// trace recorder, windowed telemetry) must leave Result
// (minus Windows) and the final memory image bit-identical to the
// unobserved run, while actually observing something.
func TestMultiCoreObservationPurity(t *testing.T) {
	refRes, refMem, _ := multiObserved(t, false)
	obsRes, obsMem, events := multiObserved(t, true)
	if !reflect.DeepEqual(refRes, stripWindows(obsRes)) {
		t.Errorf("observed Result diverged from unobserved\n ref: %+v\n got: %+v",
			refRes, stripWindows(obsRes))
	}
	if !reflect.DeepEqual(refMem, obsMem) {
		t.Error("observed memory image diverged from unobserved")
	}
	if len(obsRes.Windows) == 0 {
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
