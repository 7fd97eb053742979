package main

import (
	"fmt"
	"syscall"
	"time"

	"ghostthread/internal/harness"
	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// passResult is what one untraced measured pass reports.
type passResult struct {
	Workload string      `json:"workload"`
	WallS    float64     `json:"wall_s"`
	CPUS     float64     `json:"cpu_s"` // process CPU time (user+sys) of the measured pass
	Rows     []rowRecord `json:"rows"`

	Attempted       int     `json:"attempted"`
	Failed          int     `json:"failed"`
	GhostGeomean    float64 `json:"ghost_geomean_x"`
	CompilerGeomean float64 `json:"compiler_geomean_x"`
	SilentGhosts    int     `json:"silent_ghosts"`
	PrefetchingFrac float64 `json:"prefetching_ghost_frac"`

	// SimCycles is the distinct-simulation numerator. For the fig6 and
	// governed workloads it needs profile cycles the product does not
	// report; the pass re-runs those profiles after the measured interval.
	SimCycles int64 `json:"sim_cycles"`

	PeakRSSMB  float64  `json:"peak_rss_mb"`
	LedgerRows int      `json:"ledger_rows"` // rows cross-checked against the perf ledger
	Problems   []string `json:"problems"`
	Stamp      stamp    `json:"stamp"`
}

func (p *passResult) problem(format string, args ...any) {
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

// interval is one measured interval, timed in wall-clock and in process
// CPU time. On a virtual machine the wall clock also counts time the
// hypervisor gave to other guests; CPU time does not.
type interval struct {
	wall time.Time
	cpu  time.Duration
}

func startInterval() interval {
	return interval{wall: time.Now(), cpu: cpuTime()}
}

func (iv interval) stop(p *passResult) {
	p.WallS = time.Since(iv.wall).Seconds()
	p.CPUS = (cpuTime() - iv.cpu).Seconds()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measurePass runs the workload once through its product entry point
// with tracing off.
func measurePass(w benchWorkload, multi []multiConfig, ledger string) *passResult {
	res := &passResult{Workload: w.Name, Stamp: newStamp(w)}
	switch w.Kind {
	case kindFig6:
		passFig6(w, res)
		if w.Ledger && ledger != "" {
			n, err := checkLedger(ledger, res.Rows)
			res.LedgerRows = n
			if err != nil {
				res.problem("ledger cross-check: %v", err)
			}
		}
	case kindFig9:
		passFig9(w, multi, res)
	case kindGoverned:
		passGoverned(w, res)
	}
	res.PeakRSSMB = peakRSSMB()
	return res
}

func passFig6(w benchWorkload, res *passResult) {
	cfg := w.config()
	iv := startInterval()
	m, err := harness.RunMatrixWorkers(w.Rows, w.Machine, cfg, 1, nil)
	iv.stop(res)
	if err != nil {
		res.problem("matrix: %v", err)
		res.Attempted = 5 * len(w.Rows)
		res.Failed = res.Attempted
		return
	}
	reasons := map[string]map[string]string{}
	for _, r := range m.Rows {
		res.Rows = append(res.Rows, fig6Record(r))
		reasons[r.Workload] = r.Unavailable
	}
	res.Attempted, res.Failed = fig6Attempts(res.Rows, reasons)
	res.GhostGeomean = fig6Geomean(res.Rows, harness.TechGhost)
	res.CompilerGeomean = fig6Geomean(res.Rows, harness.TechCompiler)
	gr := fig6GhostRuns(res.Rows)
	res.SilentGhosts, res.PrefetchingFrac = silentGhosts(gr), prefetchingFrac(gr)
	if prof, err := profileCycles(w.Rows, cfg); err != nil {
		res.problem("%v", err)
	} else {
		res.SimCycles = distinctCycles(fig6Runs(res.Rows, prof))
	}
}

func passGoverned(w benchWorkload, res *passResult) {
	cfg := w.config()
	sink := newWindowSink()
	cfg.Telemetry.Sink = sink.observe
	iv := startInterval()
	rows := harness.GovernorExperiment(w.Rows, cfg, govWindow)
	iv.stop(res)
	if sink.err != nil {
		res.problem("telemetry sink: %v", sink.err)
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, govRecord(r))
		res.Attempted += 3 // baseline, static, governed
		if r.Err != "" {
			res.Failed++
			res.problem("%s/%s: %s", r.Workload, r.Kind, r.Err)
		}
	}
	res.GhostGeomean = govGeomean(res.Rows, "")
	res.CompilerGeomean = govGeomean(res.Rows, "compiler")
	// The product reports prefetch counts only through the telemetry
	// stream, which the governed runs carry; every governed run has a ghost.
	var gr []ghostRun
	for _, issued := range sink.runIssued {
		gr = append(gr, ghostRun{Helper: true, Issued: issued})
	}
	res.SilentGhosts, res.PrefetchingFrac = silentGhosts(gr), prefetchingFrac(gr)
	if prof, err := profileCycles(w.Rows, cfg); err != nil {
		res.problem("%v", err)
	} else {
		res.SimCycles = distinctCycles(govRuns(res.Rows, prof))
	}
}

func passFig9(w benchWorkload, multi []multiConfig, res *passResult) {
	cfg := w.config()
	results := make([]sim.Result, len(multi))
	errs := make([]error, len(multi))
	iv := startInterval()
	for i, m := range multi {
		results[i], _, errs[i] = runMulti(m, cfg)
	}
	iv.stop(res)
	var runs []simRun
	var gr []ghostRun
	for i, m := range multi {
		res.Attempted++
		if errs[i] != nil {
			res.Failed++
			res.problem("%v", errs[i])
			continue
		}
		runs = append(runs, simRun{m.key(), results[i].Cycles})
		if m.Tech == workloads.MultiGhost {
			gr = append(gr, ghostRun{Helper: true, Issued: results[i].Prefetch.Issued})
		}
	}
	res.Rows = fig9Records(multi, results, errs)
	res.SimCycles = distinctCycles(runs)
	res.SilentGhosts, res.PrefetchingFrac = silentGhosts(gr), prefetchingFrac(gr)
	vals := make([]float64, len(res.Rows))
	ok := make([]bool, len(res.Rows))
	for i, rec := range res.Rows {
		vals[i], ok[i] = rec.Speedup["ghost"], available(rec, "ghost")
	}
	res.GhostGeomean = geomean(vals, ok)
	res.CompilerGeomean = geomean(nil, nil) // no compiler column: 1.0
}

// fig9Records folds baseline/ghost pairs (in setup order) into one record
// per kernel.graph row.
func fig9Records(multi []multiConfig, results []sim.Result, errs []error) []rowRecord {
	var recs []rowRecord
	byRow := map[string]int{}
	for i, m := range multi {
		j, ok := byRow[m.Row]
		if !ok {
			j = len(recs)
			byRow[m.Row] = j
			recs = append(recs, newRecord(m.Row))
		}
		rec := &recs[j]
		tech := m.Tech.String()
		if errs[i] != nil {
			rec.Unavailable = append(rec.Unavailable, tech)
			continue
		}
		r := results[i]
		if m.Tech == workloads.MultiBaseline {
			rec.BaselineCycles = r.Cycles
			continue
		}
		rec.Cycles[tech] = r.Cycles
		if q := r.Prefetch; q.Issued+q.Redundant > 0 {
			rec.Issued[tech] = q.Issued
		}
	}
	for i := range recs {
		for tech, c := range recs[i].Cycles {
			if recs[i].BaselineCycles > 0 {
				recs[i].Speedup[tech] = float64(recs[i].BaselineCycles) / float64(c)
			}
		}
	}
	return recs
}

// profileCycles re-runs the profiling simulation behind each row, the way
// the harness's profile memo does it once per workload and machine. Its
// cycle counts are part of the sim_cycles_per_s numerator; the product
// does not report them.
func profileCycles(names []string, cfg sim.Config) (map[string]int64, error) {
	out := map[string]int64{}
	for _, name := range names {
		build, err := workloads.Lookup(name)
		if err != nil {
			return nil, err
		}
		pinst := build(workloads.ProfileOptions())
		rep, err := profile.Run(cfg, pinst.Mem, pinst.Baseline.Main, nil)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", name, err)
		}
		out[name] = rep.TotalCycles
	}
	return out, nil
}
