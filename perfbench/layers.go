package main

import (
	"time"

	"ghostthread/internal/cache"
)

// walkResult is what the traced walk and its probes report.
type walkResult struct {
	Workload  string                        `json:"workload"`
	WalkS     float64                       `json:"walk_s"`     // the traced walk alone, probes excluded
	WalkCPUS  float64                       `json:"walk_cpu_s"` // its process CPU time
	SimCycles int64                         `json:"sim_cycles"`
	Layers    map[string]float64            `json:"layers"`
	RowSplit  map[string]map[string]float64 `json:"row_split_s"` // row -> layer -> seconds
	Rows      []rowRecord                   `json:"rows"`
	Problems  []string                      `json:"problems"`
	Stamp     stamp                         `json:"stamp"`
}

// simTechs are the technique suffixes of the sim.run_s.* metrics.
var simTechs = []string{"baseline", "swpf", "smt-openmp", "ghost", "compiler"}

// walkAndProbe runs the traced walk, checks it against the measured pass
// (want, when given), runs the probes and derives the per-layer metrics.
// Span times are wall-clock.
func walkAndProbe(w benchWorkload, multi []multiConfig, tr *tracer, want *passResult) *walkResult {
	k := &walker{w: w, tr: tr, cfg: w.config(), sink: newWindowSink()}
	if w.Kind == kindGoverned {
		k.cfg.Telemetry.Sink = k.sink.observe
	}
	start, cpu0 := time.Now(), cpuTime()
	k.run(multi)
	out := &walkResult{Workload: w.Name, WalkS: time.Since(start).Seconds(),
		WalkCPUS: (cpuTime() - cpu0).Seconds(), Rows: k.recs,
		SimCycles: distinctCycles(k.runs), RowSplit: tr.rowSplit(), Stamp: newStamp(w)}
	if k.sink.err != nil {
		k.problem("telemetry sink: %v", k.sink.err)
	}
	if want != nil {
		if err := sameRecords(k.recs, want.Rows); err != nil {
			k.problem("walk disagrees with the measured pass: %v", err)
		}
		if out.SimCycles != want.SimCycles {
			k.problem("walk counts %d distinct simulated cycles, the pass %d", out.SimCycles, want.SimCycles)
		}
	}

	// Probes, after the walk.
	if w.Kind == kindFig9 {
		targets, err := fig9InterpTargets(w.Rows, k.cfg)
		if err != nil {
			k.problem("%v", err)
		}
		k.interps = targets
	}
	loop, runD, loopCycles, err := probeLoops(k.loops)
	if err != nil {
		k.problem("%v", err)
	}
	rep, err := probeReplay(k.interps)
	if err != nil {
		k.problem("%v", err)
	}
	var observed, unobserved time.Duration
	if w.Kind == kindGoverned {
		if observed, unobserved, err = probeObservers(w); err != nil {
			k.problem("%v", err)
		}
	}

	L := map[string]float64{
		"harness.redundant_sims": float64(redundantRuns(k.runs)),
		"harness.silent_ghosts":  float64(silentGhosts(k.ghosts)),
		"workloads.build_s":      tr.total("workloads.build").Seconds(),
		"profile.run_s":          tr.total("profile.run").Seconds(),
		"core.plan_s":            tr.total("core.plan").Seconds(),
		"core.targets":           float64(k.targets),
		"slice.extract_s":        tr.total("slice.extract").Seconds(),
		"slice.silent_frac":      ratio(float64(k.silentEx), float64(k.extract)),

		"sim.loop_overhead_frac": 1 - ratio(float64(loop.D), float64(runD)),
		"cpu.instr_per_s":        ratio(float64(loop.Committed), loop.D.Seconds()),
		"cpu.stepped_frac":       ratio(float64(loop.Stepped), float64(loopCycles)),
		"cpu.ns_per_step":        ratio(float64(loop.D.Nanoseconds()), float64(loop.Steps)),

		"cache.ns_per_access":       ratio(float64(rep.CacheD.Nanoseconds()), float64(rep.Accesses)),
		"cache.accesses_per_kinstr": 1000 * ratio(float64(rep.Accesses), float64(rep.InterpSteps)),
		"mem.ns_per_request":        ratio(float64(rep.MemD.Nanoseconds()), float64(rep.Requests)),
		"isa.interp_instr_per_s":    ratio(float64(rep.InterpSteps), rep.InterpD.Seconds()),
		"obs.windows":               float64(k.sink.windows),
		"obs.sink_s":                k.sink.busy.Seconds(),
		"obs.overhead_frac":         ratio(float64(observed-unobserved), float64(unobserved)),
	}
	var simD time.Duration
	for _, tech := range simTechs {
		d := tr.total("sim.run." + tech)
		L["sim.run_s."+tech] = d.Seconds()
		simD += d
	}

	var cycles, coreCycles, committed, l1Hits, l1Misses, llcMisses, dram, divergent, decisions, kills int64
	var pf cache.PrefetchQuality
	var pfMissed int64
	for _, r := range k.results {
		res := r.Res
		cycles += res.Cycles
		coreCycles += res.Cycles * int64(r.Cores)
		committed += res.Committed
		l1Hits += res.L1Hits
		l1Misses += res.L1Misses
		llcMisses += res.LLCMisses
		dram += res.DRAMTransfers
		divergent += res.Shadow.Divergent
		decisions += int64(len(res.GovDecisions))
		kills += res.GovKills
		if r.Ghost {
			pf.Add(res.Prefetch)
			pfMissed += res.LoadLevel[1] + res.LoadLevel[2] + res.LoadLevel[3]
		}
	}
	L["sim.ns_per_cycle"] = ratio(float64(simD.Nanoseconds()), float64(cycles))
	L["cpu.ipc"] = ratio(float64(committed), float64(coreCycles))
	L["cpu.shadow_divergent"] = float64(divergent)
	L["cache.l1_miss_frac"] = ratio(float64(l1Misses), float64(l1Hits+l1Misses))
	L["cache.llc_miss_per_kinstr"] = 1000 * ratio(float64(llcMisses), float64(committed))
	L["cache.pf_accuracy"] = pf.Accuracy()
	L["cache.pf_coverage"] = ratio(float64(pf.Useful()), float64(pf.Useful()+pfMissed))
	L["cache.pf_timeliness"] = pf.Timeliness()
	L["mem.dram_per_kinstr"] = 1000 * ratio(float64(dram), float64(committed))
	L["gov.decisions"] = float64(decisions)
	L["gov.kills"] = float64(kills)
	if divergent != 0 {
		k.problem("shadow oracle: %d divergent ghost prefetches", divergent)
	}

	out.Layers = L
	out.Problems = k.problems
	return out
}
