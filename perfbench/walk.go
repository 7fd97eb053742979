package main

import (
	"fmt"
	"sort"
	"time"

	"ghostthread/internal/core"
	"ghostthread/internal/gov"
	"ghostthread/internal/harness"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// labeledResult is one simulation the walk made, for the layer metrics.
type labeledResult struct {
	Ghost bool // the program carried a ghost helper
	Res   sim.Result
	Cores int
}

// loopTarget is a machine the probes drive again with the benchmark's own
// step loop; interpTarget a single-core baseline they interpret and replay.
type loopTarget struct {
	Name  string
	Cfg   sim.Config
	Mem   *mem.Memory
	Snap  []int64
	Progs []workloads.CorePrograms
	RunD  time.Duration // the walk's sim.New/Load/Run time for this machine
	Res   sim.Result    // the walk's result, which the loop must reproduce
}

type interpTarget struct {
	Name string
	Cfg  sim.Config
	Mem  *mem.Memory
	Snap []int64
	Main *isa.Program
	Help []*isa.Program
}

// walker redoes a workload's work as calls into each module's public
// functions, in the order the product entry point makes them, with a span
// around every call.
type walker struct {
	w    benchWorkload
	tr   *tracer
	cfg  sim.Config
	sink *windowSink

	recs     []rowRecord
	runs     []simRun
	ghosts   []ghostRun
	results  []labeledResult
	targets  int
	extract  int // ghosts extracted by the slicer
	silentEx int // extracted ghosts that issued no prefetch
	problems []string

	loops   []loopTarget
	interps []interpTarget
}

func (k *walker) problem(format string, args ...any) {
	k.problems = append(k.problems, fmt.Sprintf(format, args...))
}

// simulate runs main+helpers on a fresh single-core machine inside a
// sim.run.<tech> span and records the result.
func (k *walker) simulate(row, tech, key string, ghost bool, cfg sim.Config, m *mem.Memory,
	main *isa.Program, helpers []*isa.Program) (sim.Result, time.Duration, error) {
	end := k.tr.begin("sim.run."+tech, row)
	start := time.Now()
	res, err := sim.RunProgram(cfg, m, main, helpers)
	d := time.Since(start)
	end()
	if err != nil {
		return res, d, err
	}
	k.runs = append(k.runs, simRun{key, res.Cycles})
	k.results = append(k.results, labeledResult{Ghost: ghost, Res: res, Cores: 1})
	return res, d, nil
}

func (k *walker) build(row string, b workloads.Builder, opts workloads.Options) *workloads.Instance {
	defer k.tr.begin("workloads.build", row)()
	return b(opts)
}

// profile mirrors the harness's memoized profiling run of workload name
// (built at profile scale, checked), which happens once per workload and
// machine.
func (k *walker) profile(row, name string, b workloads.Builder) (*profile.Report, error) {
	pinst := k.build(row, b, workloads.ProfileOptions())
	end := k.tr.begin("profile.run", row)
	rep, err := profile.Run(k.cfg, pinst.Mem, pinst.Baseline.Main, nil)
	end()
	if err != nil {
		return nil, fmt.Errorf("harness: profiling %s: %w", name, err)
	}
	if err := pinst.Check(pinst.Mem); err != nil {
		return nil, fmt.Errorf("harness: profiling run of %s corrupted results: %w", name, err)
	}
	k.runs = append(k.runs, simRun{name + "/profile", rep.TotalCycles})
	return rep, nil
}

func (k *walker) selectTargets(row string, rep *profile.Report) []core.Target {
	defer k.tr.begin("core.select_targets", row)()
	t := core.SelectTargets(rep, core.DefaultHeuristicParams())
	k.targets += len(t)
	return t
}

func (k *walker) extractGhost(row string, inst *workloads.Instance, targets []core.Target,
	sync core.SyncParams, opts slice.Options) (*slice.Result, error) {
	defer k.tr.begin("slice.extract", row)()
	return slice.ExtractWith(inst.Baseline.Main, targets, sync, inst.Counters, opts)
}

// extracted records one run of a slicer-extracted ghost.
func (k *walker) extracted(res sim.Result) {
	k.extract++
	if res.Prefetch.Issued == 0 {
		k.silentEx++
	}
}

func (k *walker) run(multi []multiConfig) {
	defer k.tr.begin("walk", "")()
	switch k.w.Kind {
	case kindFig6:
		for _, name := range k.w.Rows {
			k.fig6Row(name)
		}
	case kindGoverned:
		for _, name := range k.w.Rows {
			k.governedManual(name)
			k.governedCompiler(name)
		}
	case kindFig9:
		k.fig9(multi)
	}
}

// fig6Row mirrors harness.Eval for one workload.
func (k *walker) fig6Row(name string) {
	defer k.tr.begin("row", name)()
	build, err := workloads.Lookup(name)
	if err != nil {
		k.problem("%v", err)
		return
	}
	rep, err := k.profile(name, name, build)
	if err != nil {
		k.problem("%v", err)
		return
	}
	targets := k.selectTargets(name, rep)
	evalOpts := workloads.DefaultOptions()
	inst := k.build(name, build, evalOpts)
	snap := inst.Mem.Snapshot()
	decision := core.Decide(targets, inst.Ghost != nil, inst.Parallel != nil)

	rec := newRecord(name)
	rec.Decision = decision.String()
	rec.Targets = len(targets)
	var baseD time.Duration
	runVariant := func(vname string) (sim.Result, error) {
		v := inst.VariantByName(vname)
		if v == nil {
			return sim.Result{}, fmt.Errorf("no %s variant", vname)
		}
		inst.Mem.Restore(snap)
		res, d, err := k.simulate(name, vname, name+"/"+vname, vname == "ghost", k.cfg, inst.Mem, v.Main, v.Helpers)
		if err != nil {
			return sim.Result{}, err
		}
		if vname == "baseline" {
			baseD = d
		}
		if err := inst.CheckFor(vname)(inst.Mem); err != nil {
			return sim.Result{}, fmt.Errorf("result check: %w", err)
		}
		return res, nil
	}

	base, err := runVariant("baseline")
	if err != nil {
		k.problem("harness: %s baseline: %v", name, err)
		return
	}
	rec.BaselineCycles = base.Cycles
	record := func(tech string, res sim.Result, err error) {
		if err != nil {
			rec.Unavailable = append(rec.Unavailable, tech)
			if err.Error() != expectedX {
				k.problem("%s %s: %v", name, tech, err)
			}
			return
		}
		rec.Speedup[tech] = float64(base.Cycles) / float64(res.Cycles)
		rec.Cycles[tech] = res.Cycles
		if q := res.Prefetch; q.Issued+q.Redundant > 0 {
			rec.Issued[tech] = q.Issued
		}
	}

	res, err := runVariant("swpf")
	record(harness.TechSWPF, res, err)

	if inst.Parallel == nil {
		record(harness.TechSMT, sim.Result{}, fmt.Errorf("%s", expectedX))
	} else {
		res, err = runVariant("smt-openmp")
		record(harness.TechSMT, res, err)
	}

	helper := false
	switch decision {
	case core.UseGhost:
		if inst.Ghost != nil {
			end := k.tr.begin("core.plan", name)
			_, err = core.Plan(inst.Ghost.Helpers, inst.Counters)
			end()
		}
		if err != nil {
			err = fmt.Errorf("ghost plan: %w", err)
		} else {
			res, err = runVariant("ghost")
			helper = err == nil
		}
	case core.UseParallel:
		res, err = runVariant("smt-openmp")
	default:
		res, err = base, nil
	}
	k.ghosts = append(k.ghosts, ghostRun{Helper: helper, Issued: res.Prefetch.Issued})
	record(harness.TechGhost, res, err)

	helper = false
	switch {
	case len(targets) > 0:
		var ext *slice.Result
		ext, err = k.extractGhost(name, inst, targets, evalOpts.Sync, slice.Options{AllowUnproved: true})
		if err != nil {
			err = fmt.Errorf("extraction: %w", err)
		} else {
			inst.Mem.Restore(snap)
			res, _, err = k.simulate(name, "compiler", name+"/compiler", true, k.cfg, inst.Mem, ext.Main, []*isa.Program{ext.Ghost})
			if err == nil {
				if cerr := inst.Check(inst.Mem); cerr != nil {
					err = fmt.Errorf("result check: %w", cerr)
				}
			}
			if err == nil {
				helper = true
				k.extracted(res)
			}
		}
	case inst.Parallel != nil:
		res, err = runVariant("smt-openmp")
	default:
		res, err = base, nil
	}
	k.ghosts = append(k.ghosts, ghostRun{Helper: helper, Issued: res.Prefetch.Issued})
	record(harness.TechCompiler, res, err)
	sort.Strings(rec.Unavailable)
	k.recs = append(k.recs, rec)
	k.probeBaseline(name, inst, snap, base, baseD)
}

// probeBaseline queues a single-core baseline the walk ran for the step
// loop, interpreter and replay probes.
func (k *walker) probeBaseline(name string, inst *workloads.Instance, snap []int64, res sim.Result, d time.Duration) {
	k.loops = append(k.loops, loopTarget{Name: name + "/baseline", Cfg: k.cfg, Mem: inst.Mem, Snap: snap,
		Progs: []workloads.CorePrograms{{Main: inst.Baseline.Main, Helpers: inst.Baseline.Helpers}},
		RunD:  d, Res: res})
	k.interps = append(k.interps, interpTarget{Name: name, Cfg: k.cfg, Mem: inst.Mem, Snap: snap,
		Main: inst.Baseline.Main, Help: inst.Baseline.Helpers})
}

// runChecked mirrors the governor experiment's restore/run/check step.
func (k *walker) runChecked(row, tech, key string, ghost bool, inst *workloads.Instance, snap []int64, cfg sim.Config,
	main *isa.Program, helpers []*isa.Program, check func(*mem.Memory) error) (sim.Result, time.Duration, error) {
	inst.Mem.Restore(snap)
	res, d, err := k.simulate(row, tech, key, ghost, cfg, inst.Mem, main, helpers)
	if err != nil {
		return sim.Result{}, d, err
	}
	if err := check(inst.Mem); err != nil {
		return sim.Result{}, d, fmt.Errorf("result check: %w", err)
	}
	return res, d, nil
}

// fillGov mirrors harness.GovRow's fill.
func fillGov(rec *rowRecord, base, static, governed sim.Result) {
	rec.BaselineCycles = base.Cycles
	rec.Cycles["static"] = static.Cycles
	rec.Cycles["governed"] = governed.Cycles
	rec.Speedup["static"] = float64(base.Cycles) / float64(static.Cycles)
	rec.Speedup["governed"] = float64(base.Cycles) / float64(governed.Cycles)
	rec.Kills = governed.GovKills
	rec.Respawns = governed.GovRespawns
	for _, d := range governed.GovDecisions {
		if d.Action == gov.ActionRetune {
			rec.Retunes++
		}
	}
}

// governedManual mirrors the governor experiment's manual-ghost row.
func (k *walker) governedManual(name string) {
	row := name + "/manual"
	defer k.tr.begin("row", row)()
	rec := newRecord(name)
	rec.Kind = "manual"
	build, err := workloads.Lookup(name)
	if err != nil {
		rec.Err = err.Error()
		k.recs = append(k.recs, rec)
		return
	}
	if inst := k.build(row, build, workloads.DefaultOptions()); inst.Ghost == nil {
		return
	}
	opts := workloads.DefaultOptions()
	opts.Sync.Trace = true
	inst := k.build(row, build, opts)
	snap := inst.Mem.Snapshot()

	base, baseD, err := k.runChecked(row, "baseline", name+"/baseline", false, inst, snap, k.cfg,
		inst.Baseline.Main, inst.Baseline.Helpers, inst.CheckFor("baseline"))
	if err != nil {
		rec.Err = "baseline: " + err.Error()
		k.recs = append(k.recs, rec)
		return
	}
	k.probeBaseline(name, inst, snap, base, baseD)

	static, _, err := k.runChecked(row, "ghost", name+"/manual/static", true, inst, snap, k.cfg,
		inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		rec.Err = "static: " + err.Error()
		k.recs = append(k.recs, rec)
		return
	}
	k.ghosts = append(k.ghosts, ghostRun{Helper: true, Issued: static.Prefetch.Issued})
	gcfg := harness.GovernedConfig(k.cfg, govWindow, inst.Counters)
	governed, _, err := k.runChecked(row, "ghost", name+"/manual/governed", true, inst, snap, gcfg,
		inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		rec.Err = "governed: " + err.Error()
		k.recs = append(k.recs, rec)
		return
	}
	k.ghosts = append(k.ghosts, ghostRun{Helper: true, Issued: governed.Prefetch.Issued})
	fillGov(&rec, base, static, governed)
	k.recs = append(k.recs, rec)
}

// governedCompiler mirrors the governor experiment's compiler-ghost row.
func (k *walker) governedCompiler(name string) {
	row := name + "/compiler"
	defer k.tr.begin("row", row)()
	rec := newRecord(name)
	rec.Kind = "compiler"
	fail := func(msg string) {
		rec.Err = msg
		k.recs = append(k.recs, rec)
	}
	build, err := workloads.Lookup(name)
	if err != nil {
		fail(err.Error())
		return
	}
	rep, err := k.profile(row, name, build)
	if err != nil {
		fail(err.Error())
		return
	}
	targets := k.selectTargets(row, rep)
	if len(targets) == 0 {
		return
	}
	opts := workloads.DefaultOptions()
	opts.Sync.Trace = true
	inst := k.build(row, build, opts)
	tfAddr := inst.Mem.Grow(2)
	clAddr := tfAddr + 1
	inst.Mem.StoreWord(tfAddr, opts.Sync.TooFar)
	inst.Mem.StoreWord(clAddr, opts.Sync.Close)
	snap := inst.Mem.Snapshot()

	base, _, err := k.runChecked(row, "baseline", name+"/baseline", false, inst, snap, k.cfg,
		inst.Baseline.Main, inst.Baseline.Helpers, inst.CheckFor("baseline"))
	if err != nil {
		fail("baseline: " + err.Error())
		return
	}
	ext, err := k.extractGhost(row, inst, targets, opts.Sync, slice.Options{AllowUnproved: true})
	if err != nil {
		fail("extraction: " + err.Error())
		return
	}
	static, _, err := k.runChecked(row, "compiler", name+"/compiler/static", true, inst, snap, k.cfg,
		ext.Main, []*isa.Program{ext.Ghost}, inst.Check)
	if err != nil {
		fail("static: " + err.Error())
		return
	}
	k.extracted(static)
	k.ghosts = append(k.ghosts, ghostRun{Helper: true, Issued: static.Prefetch.Issued})

	dopts := opts
	dopts.Sync.TooFarAddr = tfAddr
	dopts.Sync.CloseAddr = clAddr
	dext, err := k.extractGhost(row, inst, targets, dopts.Sync, slice.Options{AllowUnproved: true, PerPhase: true})
	if err != nil {
		fail("dynamic extraction: " + err.Error())
		return
	}
	gcfg := harness.GovernedConfig(k.cfg, govWindow, inst.Counters)
	gcfg.Governor.Retune = true
	gcfg.Governor.TooFarAddr = tfAddr
	gcfg.Governor.CloseAddr = clAddr
	gcfg.Governor.TooFarInit = opts.Sync.TooFar
	gcfg.Governor.CloseInit = opts.Sync.Close
	gcfg.Governor.ResyncPC = int64(dext.ResyncPC)
	gcfg.Governor.RevivePeriod = 1
	governed, _, err := k.runChecked(row, "compiler", name+"/compiler/governed", true, inst, snap, gcfg,
		dext.Main, []*isa.Program{dext.Ghost}, inst.Check)
	if err != nil {
		fail("governed: " + err.Error())
		return
	}
	k.extracted(governed)
	k.ghosts = append(k.ghosts, ghostRun{Helper: true, Issued: governed.Prefetch.Issued})
	fillGov(&rec, base, static, governed)
	k.recs = append(k.recs, rec)
}

// fig9 runs the figure-9 builds made in setup, in setup order.
func (k *walker) fig9(multi []multiConfig) {
	results := make([]sim.Result, len(multi))
	errs := make([]error, len(multi))
	for i, m := range multi {
		end := k.tr.begin("row", m.Row)
		endRun := k.tr.begin("sim.run."+m.Tech.String(), m.Row)
		var d time.Duration
		results[i], d, errs[i] = runMulti(m, k.cfg)
		endRun()
		end()
		if errs[i] != nil {
			k.problem("%v", errs[i])
			continue
		}
		ghost := m.Tech == workloads.MultiGhost
		k.runs = append(k.runs, simRun{m.key(), results[i].Cycles})
		k.results = append(k.results, labeledResult{Ghost: ghost, Res: results[i], Cores: m.Inst.Cores})
		if ghost {
			k.ghosts = append(k.ghosts, ghostRun{Helper: true, Issued: results[i].Prefetch.Issued})
		}
		cfg := k.cfg
		cfg.Cores = m.Inst.Cores
		k.loops = append(k.loops, loopTarget{Name: m.key(), Cfg: cfg, Mem: m.Inst.Mem, Snap: m.Snap,
			Progs: m.Inst.Per, RunD: d, Res: results[i]})
	}
	k.recs = fig9Records(multi, results, errs)
}
