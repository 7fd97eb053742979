package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"ghostthread/internal/fault"
	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// ResilienceLevel is one step of the fault-intensity ladder the
// resilience experiment sweeps.
type ResilienceLevel struct {
	Name  string
	Fault fault.Config
}

// ResilienceLevels returns the canonical ladder, fault-free first, each
// later step a strictly noisier system. The ladder kills the ghost only
// at the top step — an asynchronous kill is architecturally safe only for
// helper contexts running ghosts (they never store), which is exactly
// what the resilience sweep runs.
func ResilienceLevels(seed uint64) []ResilienceLevel {
	return []ResilienceLevel{
		{Name: "fault-free", Fault: fault.Config{}},
		{Name: "light", Fault: fault.Config{
			Seed: seed, PreemptInterval: 50_000, PreemptLen: 1_000,
			SpawnDelayMax: 2_000, MemJitterMax: 30,
		}},
		{Name: "moderate", Fault: fault.Config{
			Seed: seed, PreemptInterval: 20_000, PreemptLen: 3_000,
			SpawnDelayMax: 5_000, MemJitterMax: 80,
			DropPrefetchPerMille: 50, DelayPrefetchPerMille: 100, DelayPrefetchMax: 200,
			StaleSyncPerMille: 100, StaleSyncLag: 2,
		}},
		{Name: "heavy", Fault: fault.Config{
			Seed: seed, PreemptInterval: 8_000, PreemptLen: 5_000,
			SpawnDelayMax: 10_000, MemJitterMax: 150,
			DropPrefetchPerMille: 200, DelayPrefetchPerMille: 300, DelayPrefetchMax: 400,
			StaleSyncPerMille: 300, StaleSyncLag: 4,
		}},
		{Name: "extreme", Fault: fault.Config{
			Seed: seed, PreemptInterval: 4_000, PreemptLen: 8_000,
			SpawnDelayMax: 20_000, MemJitterMax: 300,
			DropPrefetchPerMille: 500, DelayPrefetchPerMille: 400, DelayPrefetchMax: 800,
			StaleSyncPerMille: 500, StaleSyncLag: 8,
			GhostKillAt: 150_000,
		}},
	}
}

// ResilienceRow is the outcome of one (workload, fault level) cell.
type ResilienceRow struct {
	Workload       string      `json:"workload"`
	Level          string      `json:"level"`
	FaultSpec      string      `json:"fault"`
	BaselineCycles int64       `json:"baseline_cycles,omitempty"`
	GhostCycles    int64       `json:"ghost_cycles,omitempty"`
	Speedup        float64     `json:"speedup,omitempty"`
	Faults         fault.Stats `json:"faults"`
	CheckOK        bool        `json:"check_ok"`
	TimedOut       bool        `json:"timed_out,omitempty"`
	BadConfig      bool        `json:"bad_config,omitempty"`
	Err            string      `json:"error,omitempty"`
}

// ResilienceOptions configures a resilience sweep.
type ResilienceOptions struct {
	// Levels is the fault ladder; nil means ResilienceLevels(1).
	Levels []ResilienceLevel
	// Workers bounds the pool (<= 0 means GOMAXPROCS).
	Workers int
	// CycleBudget, when positive, replaces the machine's MaxCycles as the
	// per-run watchdog: a run exceeding it lands as a typed-timeout row
	// (sim.BudgetError) rather than hanging the sweep.
	CycleBudget int64
	// BuildOpts selects the workload input scale (zero value means
	// DefaultOptions — evaluation scale; the fault-smoke target passes
	// ProfileOptions to stay fast).
	BuildOpts workloads.Options
	// InjectPanic, when non-empty, panics inside the named workload's
	// task — the acceptance check that a crashing worker becomes an error
	// row while every other row survives.
	InjectPanic string
	// Window enables windowed telemetry on every run of the sweep (the
	// sample period in cycles; 0 = off). Telemetry is observation only —
	// it never changes any row's cycle counts.
	Window int64
	// WindowSink receives every telemetry sample, tagged with the run
	// identity, as it is flushed (serialized across workers; may be nil).
	// Feed the NDJSON stream to gtmon for live sweep introspection.
	WindowSink func(obs.MonitorRow)
}

// Resilience sweeps the named workloads' ghost variants across the fault
// ladder: at each level, both the baseline and the ghost variant run
// under that level's fault schedule (machine-wide faults like DRAM jitter
// hit the baseline too; ghost-specific faults have nothing to act on
// there), every run's application results validated. Speedup at each
// level is that level's baseline cycles / ghost cycles, so it isolates
// what the ghost still buys on an equally noisy machine — the paper's
// deployability claim: the benefit degrades gracefully with fault
// intensity and results are never corrupted.
//
// Completed rows stream through sink (serialized; may be nil) as they
// finish — completion order, not input order — so a killed sweep keeps its
// partial results. A panic inside one workload's task is recovered into an
// error row for that workload; the returned slice holds every row in
// (workload, level) input order.
func Resilience(names []string, cfg sim.Config, opts ResilienceOptions, sink func(ResilienceRow)) ([]ResilienceRow, error) {
	levels := opts.Levels
	if levels == nil {
		levels = ResilienceLevels(1)
	}
	for _, lv := range levels {
		if err := lv.Fault.Validate(); err != nil {
			return nil, fmt.Errorf("harness: resilience level %s: %w", lv.Name, err)
		}
	}
	buildOpts := opts.BuildOpts
	if buildOpts == (workloads.Options{}) {
		buildOpts = workloads.DefaultOptions()
	}
	if opts.CycleBudget > 0 {
		cfg.MaxCycles = opts.CycleBudget
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) && len(names) > 0 {
		workers = len(names)
	}

	var sinkMu sync.Mutex
	emit := func(r ResilienceRow) {
		if sink == nil {
			return
		}
		sinkMu.Lock()
		sink(r)
		sinkMu.Unlock()
	}
	var winMu sync.Mutex
	winEmit := func(r obs.MonitorRow) {
		if opts.WindowSink == nil {
			return
		}
		winMu.Lock()
		opts.WindowSink(r)
		winMu.Unlock()
	}

	perWorkload := make([][]ResilienceRow, len(names))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				perWorkload[i] = resilienceTask(names[i], cfg, levels, buildOpts, opts.InjectPanic, opts.Window, emit, winEmit)
			}
		}()
	}
	for i := range names {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var rows []ResilienceRow
	for _, rs := range perWorkload {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// resilienceTask runs one workload through the ladder, emitting each row
// as it completes. A panic anywhere inside (builder, simulator, check, or
// the injected test panic) is recovered into a single error row so the
// rest of the sweep is unaffected.
func resilienceTask(name string, cfg sim.Config, levels []ResilienceLevel, buildOpts workloads.Options, injectPanic string, window int64, emit func(ResilienceRow), winEmit func(obs.MonitorRow)) (rows []ResilienceRow) {
	defer func() {
		if r := recover(); r != nil {
			perr := &PanicError{Workload: name, Value: r, Stack: debug.Stack()}
			row := ResilienceRow{Workload: name, Level: "panic", Err: perr.Error()}
			rows = append(rows, row)
			emit(row)
		}
	}()
	if injectPanic == name {
		panic(fmt.Sprintf("injected resilience-test panic in %s", name))
	}

	build, err := workloads.Lookup(name)
	if err != nil {
		row := ResilienceRow{Workload: name, Level: "setup", Err: err.Error()}
		emit(row)
		return []ResilienceRow{row}
	}
	if probe := build(buildOpts); probe.Ghost == nil {
		row := ResilienceRow{Workload: name, Level: "setup", Err: "no ghost variant"}
		emit(row)
		return []ResilienceRow{row}
	}

	for _, lv := range levels {
		row := ResilienceRow{
			Workload:  name,
			Level:     lv.Name,
			FaultSpec: lv.Fault.String(),
		}
		runCfg := cfg
		runCfg.Fault = lv.Fault

		runOne := func(variant string) (sim.Result, error) {
			inst := build(buildOpts)
			v := inst.VariantByName(variant)
			oneCfg := runCfg
			if window > 0 {
				level := lv.Name
				oneCfg.Telemetry.WindowCycles = window
				oneCfg.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
				oneCfg.Telemetry.Sink = func(ws obs.WindowSample) {
					winEmit(obs.MonitorRow{Workload: name, Variant: variant, Level: level, WindowSample: ws})
				}
			}
			res, err := sim.RunProgram(oneCfg, inst.Mem, v.Main, v.Helpers)
			if err != nil {
				return res, err
			}
			if cerr := inst.CheckFor(variant)(inst.Mem); cerr != nil {
				return res, fmt.Errorf("result check: %w", cerr)
			}
			return res, nil
		}

		base, err := runOne("baseline")
		if err != nil {
			row.fail("baseline: ", err)
			rows = append(rows, row)
			emit(row)
			continue
		}
		row.BaselineCycles = base.Cycles

		res, err := runOne("ghost")
		switch {
		case err != nil:
			row.fail("", err)
		default:
			row.GhostCycles = res.Cycles
			row.Speedup = float64(base.Cycles) / float64(res.Cycles)
			row.Faults = res.Fault
			row.CheckOK = true
		}
		rows = append(rows, row)
		emit(row)
	}
	return rows
}

// fail records a failed run on the row, typed when err is (or wraps) a
// cycle-budget timeout or an invalid machine configuration.
func (r *ResilienceRow) fail(prefix string, err error) {
	r.Err = prefix + err.Error()
	var be *sim.BudgetError
	r.TimedOut = errors.As(err, &be)
	var ce *sim.ConfigError
	r.BadConfig = errors.As(err, &ce)
}

// RenderResilience renders the sweep as a table, one row per
// (workload, level) cell in the order given.
func RenderResilience(rows []ResilienceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-11s %12s %12s %8s %7s %6s %6s %6s  %s\n",
		"workload", "level", "base-cyc", "ghost-cyc", "speedup",
		"preempt", "drops", "stale", "kills", "status")
	for _, r := range rows {
		status := "ok"
		switch {
		case r.TimedOut:
			status = "TIMEOUT"
		case r.BadConfig:
			status = "BAD CONFIG: " + firstLine(r.Err)
		case r.Err != "":
			// Keep the table single-line; the full error (stack included
			// for panics) is in the JSON output.
			status = "ERROR: " + firstLine(r.Err)
		case !r.CheckOK:
			status = "CHECK FAILED"
		}
		fmt.Fprintf(&b, "%-12s %-11s %12d %12d %8.2f %7d %6d %6d %6d  %s\n",
			r.Workload, r.Level, r.BaselineCycles, r.GhostCycles, r.Speedup,
			r.Faults.Preemptions, r.Faults.DroppedPrefetches, r.Faults.StaleReads,
			r.Faults.Kills, status)
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
