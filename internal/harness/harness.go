// Package harness drives the paper's experiments: one entry point per
// table and figure (table 1, figures 3 and 6-10), each reproducing the
// corresponding rows/series with the same structure the paper reports.
// The cmd/ghostbench tool and the repository's benchmarks are thin
// wrappers around this package.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"ghostthread/internal/cache"
	"ghostthread/internal/core"
	"ghostthread/internal/cpu"
	"ghostthread/internal/energy"
	"ghostthread/internal/fault"
	"ghostthread/internal/gov"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// Technique names, in the order the figures plot them.
const (
	TechSWPF     = "swpf"
	TechSMT      = "smt-openmp"
	TechGhost    = "ghost-threading"
	TechCompiler = "compiler-ghost"
)

// Techniques lists the four evaluated techniques.
var Techniques = []string{TechSWPF, TechSMT, TechGhost, TechCompiler}

// Row is the evaluation outcome for one workload: speedups over the
// baseline and package-energy savings, per technique. Unavailable
// combinations (the figures' 'x' ticks) carry 0 and a reason.
type Row struct {
	Workload string
	Decision core.Decision // the heuristic's ghost-vs-OpenMP choice
	Targets  int           // number of selected target loads

	BaselineCycles int64
	Speedup        map[string]float64
	EnergySaving   map[string]float64
	Unavailable    map[string]string // technique -> reason ('x' ticks)

	// Prefetch holds the prefetch-quality summary per technique, for the
	// techniques whose run executed software prefetches.
	Prefetch map[string]PrefetchReport

	// SimCycles is the total simulated cycles this row represents: the
	// profiling run plus every distinct successful simulation, each
	// counted once. Columns that reuse another column's run add nothing:
	// the OpenMP fallback columns reuse the SMT column's run, and a
	// variant whose code is identical to an earlier one (tc's swpf is its
	// baseline) reuses that variant's run. It is the numerator of the
	// harness's simulated-cycles-per-second throughput metric, and is
	// computed identically whether the profile came from the cache or a
	// fresh run, so rows stay bit-identical across worker counts.
	SimCycles int64

	// sims counts the simulations the row ran, profiling excluded; the
	// reuse tests read it.
	sims int
}

// profKey identifies one memoizable profiling run: the workload name plus
// every field of the machine configuration that can influence the
// profile. sim.Config itself is not comparable (Telemetry.Sink is a
// func), so the comparable fields are copied out; configs with telemetry
// on bypass the cache entirely.
// Every comparable sim.Config field must appear here — a missing field
// silently poisons the memo with stale hits across configs that differ
// only in that field. TestProfKeyCoversSimConfig enforces this by
// reflection: it fails the moment sim.Config grows a comparable field
// with no counterpart below.
type profKey struct {
	workload  string
	cores     int
	cpu       cpu.Config
	hier      cache.HierarchyConfig
	llc       cache.Config
	memCtl    mem.ControllerConfig
	maxCycles int64
	cycleStep bool
	fault     fault.Config
	governor  gov.Config
}

type profEntry struct {
	once sync.Once
	rep  *profile.Report
	err  error
}

var (
	profMu    sync.Mutex
	profCache = map[profKey]*profEntry{}

	// profileRuns counts actual (non-memoized) profiling simulations; the
	// memoization tests read it.
	profileRuns atomic.Int64
)

// profileWorkload returns the profiling report for workload under cfg,
// memoized process-wide: figure 6 and figure 7 share one profile per
// workload, and repeated matrix runs (benchmarks, sweeps) skip profiling
// entirely. Profiling is deterministic for a given (workload, machine)
// pair — workload builders seed their own RNGs — so a cached report is
// bit-identical to a fresh one. Reports are treated as immutable by all
// consumers. sync.Once gives concurrent workers single-flight semantics.
// The shadow oracle is stripped first: a report carries no shadow
// verdict and the oracle never changes a run, so shadowed and unshadowed
// callers share one profile.
func profileWorkload(workload string, build workloads.Builder, cfg sim.Config) (*profile.Report, error) {
	cfg.Shadow = sim.ShadowConfig{}
	if cfg.Telemetry.Enabled() {
		// Telemetry configs bypass the memo: a cache hit would silently
		// drop the windows (and Sink calls) the caller is counting on
		// (and funcs are unhashable as keys anyway).
		return runProfile(workload, build, cfg)
	}
	key := profKey{
		workload:  workload,
		cores:     cfg.Cores,
		cpu:       cfg.CPU,
		hier:      cfg.Hier,
		llc:       cfg.LLC,
		memCtl:    cfg.MemCtl,
		maxCycles: cfg.MaxCycles,
		cycleStep: cfg.CycleStep,
		fault:     cfg.Fault,
		governor:  cfg.Governor,
	}
	profMu.Lock()
	e := profCache[key]
	if e == nil {
		e = &profEntry{}
		profCache[key] = e
	}
	profMu.Unlock()
	e.once.Do(func() {
		if rep := diskCacheLoad(key); rep != nil {
			e.rep = rep
			return
		}
		e.rep, e.err = runProfile(workload, build, cfg)
		if e.err == nil {
			diskCacheStore(key, e.rep)
		}
	})
	return e.rep, e.err
}

func runProfile(workload string, build workloads.Builder, cfg sim.Config) (*profile.Report, error) {
	profileRuns.Add(1)
	pinst := build(workloads.ProfileOptions())
	rep, err := profile.Run(cfg, pinst.Mem, pinst.Baseline.Main, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: profiling %s: %w", workload, err)
	}
	if err := pinst.Check(pinst.Mem); err != nil {
		return nil, fmt.Errorf("harness: profiling run of %s corrupted results: %w", workload, err)
	}
	return rep, nil
}

// PanicError wraps a panic recovered from one workload's evaluation, so a
// crashing workload surfaces as an error carrying the workload name and
// the goroutine stack instead of killing the whole sweep.
type PanicError struct {
	Workload string
	Value    any    // the recovered panic value
	Stack    []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: %s: panic: %v\n%s", e.Workload, e.Value, e.Stack)
}

// testPanicHook, when non-nil, runs at the top of every safeEval call
// and every resilience task. The recovery tests use it to crash a chosen
// workload's task.
var testPanicHook func(workload string)

// safeEval is Eval with per-task panic recovery: a panic anywhere in the
// pipeline (workload builder, simulator, result check) becomes a
// *PanicError instead of tearing down the process.
func safeEval(workload string, cfg sim.Config, hp core.HeuristicParams) (row *Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			row = nil
			err = &PanicError{Workload: workload, Value: r, Stack: debug.Stack()}
		}
	}()
	if testPanicHook != nil {
		testPanicHook(workload)
	}
	return Eval(workload, cfg, hp)
}

// Eval runs the full single-core evaluation pipeline for one workload:
//
//  1. profile the baseline on the reduced input (table 1),
//  2. select target loads with the heuristic (paper §4.1),
//  3. decide ghost-vs-OpenMP,
//  4. run baseline / SWPF / SMT OpenMP / Ghost Threading / Compiler
//     Extracted Ghost Threads on the evaluation input,
//
// validating every run's application results. cfg selects the machine
// (idle or busy server) and is used for profiling too — that is why the
// busy server selects more workloads (paper §6.3).
func Eval(workload string, cfg sim.Config, hp core.HeuristicParams) (*Row, error) {
	build, err := workloads.Lookup(workload)
	if err != nil {
		return nil, err
	}

	// Step 1-2: profile on the reduced input (memoized), select targets.
	rep, err := profileWorkload(workload, build, cfg)
	if err != nil {
		return nil, err
	}
	targets := core.SelectTargets(rep, hp)

	// One instance serves every variant run: programs are immutable once
	// built, and the memory image is snapshotted here and restored before
	// each run, so a shared instance is indistinguishable from a fresh
	// build per variant — at one workload build instead of six (for the
	// graph workloads, building costs more than simulating a variant).
	evalOpts := workloads.DefaultOptions()
	inst := build(evalOpts)
	vr := newVariantRuns(inst, cfg)
	decision := core.Decide(targets, inst.Ghost != nil, inst.Parallel != nil)

	row := &Row{
		Workload:     workload,
		Decision:     decision,
		Targets:      len(targets),
		Speedup:      map[string]float64{},
		EnergySaving: map[string]float64{},
		Unavailable:  map[string]string{},
		Prefetch:     map[string]PrefetchReport{},
	}
	em := energy.DefaultModel()

	base, err := vr.run("baseline")
	if err != nil {
		return nil, fmt.Errorf("harness: %s baseline: %w", workload, err)
	}
	row.BaselineCycles = base.Cycles

	record := func(tech string, res sim.Result, err error) {
		if err != nil {
			row.Unavailable[tech] = err.Error()
			return
		}
		row.Speedup[tech] = float64(base.Cycles) / float64(res.Cycles)
		row.EnergySaving[tech] = em.Saving(base, res)
		if q := res.Prefetch; q.Issued+q.Redundant > 0 {
			row.Prefetch[tech] = NewPrefetchReport(res)
		}
	}

	// SWPF.
	res, err := vr.run("swpf")
	record(TechSWPF, res, err)

	// SMT OpenMP (x when parallelization needs rewriting). The OpenMP
	// fallbacks below reuse its outcome.
	var smtRes sim.Result
	var smtErr error
	if inst.Parallel == nil {
		row.Unavailable[TechSMT] = "requires code rewriting"
	} else {
		smtRes, smtErr = vr.run("smt-openmp")
		record(TechSMT, smtRes, smtErr)
	}

	// Ghost Threading: the heuristic's choice. Manual ghosts pass the
	// static safety plan before they are allowed near the simulator.
	switch decision {
	case core.UseGhost:
		if inst.Ghost != nil {
			_, err = core.Plan(inst.Ghost.Helpers, inst.Counters)
		}
		if err != nil {
			err = fmt.Errorf("ghost plan: %w", err)
		} else {
			res, err = vr.run("ghost")
		}
	case core.UseParallel:
		res, err = smtRes, smtErr
	default:
		res, err = base, nil
	}
	record(TechGhost, res, err)

	// Compiler Extracted Ghost Threads: extract from the annotated
	// baseline when targets exist; otherwise mirror the fallback.
	switch {
	case len(targets) > 0:
		res, err = vr.runCompilerGhost(evalOpts, targets)
		record(TechCompiler, res, err)
	case inst.Parallel != nil:
		record(TechCompiler, smtRes, smtErr)
	default:
		record(TechCompiler, base, nil)
	}
	row.SimCycles = rep.TotalCycles + vr.cycles
	row.sims = vr.sims
	return row, nil
}

// variantRuns simulates one instance's programs, each run starting from
// the pristine memory image restored from one snapshot. The simulator is
// deterministic, so variants whose code is identical (tc's swpf is its
// baseline) would produce the same Result and the same final image: the
// first of them to run is the only one simulated, and every variant
// sharing its code runs its own result check on that final image right
// after the simulation.
type variantRuns struct {
	inst *workloads.Instance
	snap []int64
	cfg  sim.Config

	shared map[string][]string // variant -> the variants with its code, itself included
	done   map[string]outcome  // settled variant outcomes

	sims   int   // simulations run
	cycles int64 // cycles of the simulations whose own result check passed
}

// outcome is a variant's share of a simulation: its result, or its result
// check's error.
type outcome struct {
	res sim.Result
	err error
}

func newVariantRuns(inst *workloads.Instance, cfg sim.Config) *variantRuns {
	vr := &variantRuns{
		inst:   inst,
		snap:   inst.Mem.Snapshot(),
		cfg:    cfg,
		shared: map[string][]string{},
		done:   map[string]outcome{},
	}
	vs := inst.Variants()
	for _, a := range vs {
		for _, b := range vs {
			if sameCode(a.Variant, b.Variant) {
				vr.shared[a.Name] = append(vr.shared[a.Name], b.Name)
			}
		}
	}
	return vr
}

// sameCode reports whether two variants run the same instructions: the
// same main program and the same helpers in the same order, compared by
// isa.Instr content. Names and loop annotations are not compared; the
// simulator reads them only to word its errors.
func sameCode(a, b *workloads.Variant) bool {
	same := func(p, q *isa.Program) bool { return slices.Equal(p.Code, q.Code) }
	return same(a.Main, b.Main) && slices.EqualFunc(a.Helpers, b.Helpers, same)
}

// simulate runs main and helpers from the pristine image, leaving the
// final image in memory for the result checks.
func (vr *variantRuns) simulate(main *isa.Program, helpers []*isa.Program) (sim.Result, error) {
	vr.inst.Mem.Restore(vr.snap)
	vr.sims++
	return sim.RunProgram(vr.cfg, vr.inst.Mem, main, helpers)
}

// run returns the named variant's validated result, simulating it unless
// a variant with the same code already ran. A failed simulation is not
// shared: a variant with the same code simulates again and reports its
// own error.
func (vr *variantRuns) run(vname string) (sim.Result, error) {
	if o, ok := vr.done[vname]; ok {
		return o.res, o.err
	}
	v := vr.inst.VariantByName(vname)
	if v == nil {
		return sim.Result{}, fmt.Errorf("no %s variant", vname)
	}
	res, err := vr.simulate(v.Main, v.Helpers)
	if err != nil {
		return sim.Result{}, err
	}
	for _, name := range vr.shared[vname] {
		o := outcome{res: res}
		if err := vr.inst.CheckFor(name)(vr.inst.Mem); err != nil {
			o = outcome{err: fmt.Errorf("result check: %w", err)}
		}
		vr.done[name] = o
	}
	o := vr.done[vname]
	if o.err == nil {
		vr.cycles += res.Cycles
	}
	return o.res, o.err
}

// runCompilerGhost extracts the compiler ghost from the instance's
// annotated baseline and runs it. Extraction or run failures (including
// the segfaults the paper reports for sssp) surface as errors → 'x' ticks.
func (vr *variantRuns) runCompilerGhost(opts workloads.Options, targets []core.Target) (sim.Result, error) {
	inst := vr.inst
	// AllowUnproved: the paper runs compiler slices even when translation
	// validation cannot prove the address stream (they simply prefetch
	// badly); gtlint/gtverify surface the UNPROVED verdicts separately.
	ext, err := slice.ExtractWith(inst.Baseline.Main, targets, opts.Sync, inst.Counters,
		slice.Options{AllowUnproved: true})
	if err != nil {
		return sim.Result{}, fmt.Errorf("extraction: %w", err)
	}
	res, err := vr.simulate(ext.Main, []*isa.Program{ext.Ghost})
	if err != nil {
		return sim.Result{}, err
	}
	if err := inst.Check(inst.Mem); err != nil {
		return sim.Result{}, fmt.Errorf("result check: %w", err)
	}
	vr.cycles += res.Cycles
	return res, nil
}

// Geomean returns the geometric mean of the values (ignoring zeros).
func Geomean(vals []float64) float64 {
	var sum float64
	var n int
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Matrix is the full evaluation of a workload set on one machine.
type Matrix struct {
	Machine string
	Rows    []*Row

	// SimCycles is the sum of the rows' simulated cycles.
	SimCycles int64
}

// RunMatrix evaluates every named workload serially (one worker).
func RunMatrix(names []string, machine string, cfg sim.Config, progress func(string)) (*Matrix, error) {
	return RunMatrixWorkers(names, machine, cfg, 1, progress)
}

// RunMatrixWorkers evaluates every named workload on a bounded pool of
// workers (workers <= 0 means GOMAXPROCS). Workloads are independent —
// each Eval builds its own memory image and simulator instances, and the
// only shared mutable state is the profile memo (single-flight) — so
// rows are bit-identical to a serial run and returned in input order.
// On error, the first failure in input order is reported; a panic inside
// one workload's evaluation is recovered into that workload's error slot
// as a *PanicError (name + stack attached) and never kills the pool — the
// other workloads still complete. The progress
// callback is serialized but fires in completion-start order, which
// under concurrency is not the input order.
func RunMatrixWorkers(names []string, machine string, cfg sim.Config, workers int, progress func(string)) (*Matrix, error) {
	rows := make([]*Row, len(names))
	errs := make([]error, len(names))
	var progressMu sync.Mutex
	runPool(len(names), workers, func(i int) {
		if progress != nil {
			progressMu.Lock()
			progress(names[i])
			progressMu.Unlock()
		}
		rows[i], errs[i] = safeEval(names[i], cfg, core.DefaultHeuristicParams())
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m := &Matrix{Machine: machine, Rows: rows}
	for _, r := range rows {
		m.SimCycles += r.SimCycles
	}
	return m, nil
}

// runPool calls task(i) once for every i in [0, n) on a pool of at most
// workers goroutines (workers <= 0 means GOMAXPROCS). Each task must
// write only its own index's slot of any shared result.
func runPool(n, workers int, task func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				task(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// GeomeanSpeedup returns the geomean speedup for a technique across the
// matrix (unavailable entries contribute 1.0, like the paper's geomeans
// which treat them as baseline runs).
func (m *Matrix) GeomeanSpeedup(tech string) float64 {
	var vals []float64
	for _, r := range m.Rows {
		if v, ok := r.Speedup[tech]; ok {
			vals = append(vals, v)
		} else {
			vals = append(vals, 1.0)
		}
	}
	return Geomean(vals)
}

// GeomeanSaving returns the mean energy saving for a technique (in the
// multiplicative sense the paper's "geometric mean energy saving" uses:
// geomean of the energy ratios, reported as a saving).
func (m *Matrix) GeomeanSaving(tech string) float64 {
	var vals []float64
	for _, r := range m.Rows {
		if v, ok := r.EnergySaving[tech]; ok {
			vals = append(vals, 1-v)
		} else {
			vals = append(vals, 1.0)
		}
	}
	g := Geomean(vals)
	if g == 0 {
		return 0
	}
	return 1 - g
}

// GhostSelected counts workloads where the heuristic chose ghost threads
// (the figures' bold x-labels).
func (m *Matrix) GhostSelected() int {
	n := 0
	for _, r := range m.Rows {
		if r.Decision == core.UseGhost {
			n++
		}
	}
	return n
}

// RenderSpeedups renders a figure-6/8-style table: one row per workload,
// one column per technique, 'x' for unavailable, '*' marking workloads
// where ghost threads replaced the OpenMP thread (bold labels).
func (m *Matrix) RenderSpeedups() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "workload", "swpf", "smt-omp", "ghost", "compiler")
	for _, r := range m.Rows {
		label := r.Workload
		if r.Decision == core.UseGhost {
			label += "*"
		}
		fmt.Fprintf(&b, "%-16s", label)
		for _, tech := range Techniques {
			if v, ok := r.Speedup[tech]; ok {
				fmt.Fprintf(&b, " %10.2f", v)
			} else {
				fmt.Fprintf(&b, " %10s", "x")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-16s", "geomean")
	for _, tech := range Techniques {
		fmt.Fprintf(&b, " %10.2f", m.GeomeanSpeedup(tech))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "ghost threads selected for %d of %d workloads\n", m.GhostSelected(), len(m.Rows))
	return b.String()
}

// RenderEnergy renders the figure-7-style energy-saving table.
func (m *Matrix) RenderEnergy() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s   (package energy saving, %%)\n",
		"workload", "swpf", "smt-omp", "ghost", "compiler")
	for _, r := range m.Rows {
		label := r.Workload
		if r.Decision == core.UseGhost {
			label += "*"
		}
		fmt.Fprintf(&b, "%-16s", label)
		for _, tech := range Techniques {
			if v, ok := r.EnergySaving[tech]; ok {
				fmt.Fprintf(&b, " %10.1f", 100*v)
			} else {
				fmt.Fprintf(&b, " %10s", "x")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-16s", "geomean")
	for _, tech := range Techniques {
		fmt.Fprintf(&b, " %10.1f", 100*m.GeomeanSaving(tech))
	}
	b.WriteByte('\n')
	return b.String()
}

// CSV renders the speedups as comma-separated values for plotting.
func (m *Matrix) CSV() string {
	var b strings.Builder
	b.WriteString("workload,selected,swpf,smt_openmp,ghost,compiler\n")
	for _, r := range m.Rows {
		sel := 0
		if r.Decision == core.UseGhost {
			sel = 1
		}
		fmt.Fprintf(&b, "%s,%d", r.Workload, sel)
		for _, tech := range Techniques {
			if v, ok := r.Speedup[tech]; ok {
				fmt.Fprintf(&b, ",%.4f", v)
			} else {
				fmt.Fprintf(&b, ",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
