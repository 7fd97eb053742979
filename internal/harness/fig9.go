package harness

import (
	"fmt"
	"strings"

	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// Fig9CoreCounts are the physical core counts figure 9 sweeps.
var Fig9CoreCounts = []int{1, 2, 4}

// Fig9Result holds geomean speedups over the parallel baseline at each
// core count, plus the "no omp" single-threaded column and the cycles
// behind every speedup.
type Fig9Result struct {
	// Geomean[tech][cores] is the geomean speedup over the same-core-count
	// parallel baseline.
	Geomean map[string]map[int]float64 `json:"geomean"`
	// NoOmp is the single-threaded Ghost Threading geomean (the paper's
	// "no omp" column).
	NoOmp float64 `json:"no_omp"`
	// Workloads lists the kernel.graph set evaluated.
	Workloads []string `json:"workloads"`
	// Rows holds each workload's cycles, in Workloads order.
	Rows []Fig9Row `json:"rows"`
}

// Fig9Row is one kernel.graph workload's cycles: per core count, and in
// the single-threaded "no omp" column.
type Fig9Row struct {
	Workload string             `json:"workload"`
	Cycles   map[int]Fig9Cycles `json:"cycles"`
	NoOmp    Fig9Cycles         `json:"no_omp"`
}

// Fig9Cycles is one configuration's cycles per technique. Ghost is the
// Ghost Threading column: the ghost run when training selected it, else
// the OpenMP run (SMT) or, in the "no omp" column, the baseline. The
// "no omp" column has no SWPF or SMT run.
type Fig9Cycles struct {
	Baseline      int64 `json:"baseline"`
	SWPF          int64 `json:"swpf,omitempty"`
	SMT           int64 `json:"smt_openmp,omitempty"`
	Ghost         int64 `json:"ghost"`
	GhostSelected bool  `json:"ghost_selected"`
}

// Fig9Workloads returns the kernel.graph names with multi-core variants,
// the set figure 9 evaluates by default.
func Fig9Workloads() []string {
	var out []string
	for _, k := range workloads.MultiKernels {
		for _, gn := range workloads.GraphNames {
			out = append(out, k+"."+gn)
		}
	}
	return out
}

// runMulti executes a multi-core instance and validates it.
func runMulti(inst *workloads.MultiInstance, cfg sim.Config) (sim.Result, error) {
	cfg.Cores = inst.Cores
	s := sim.New(cfg, inst.Mem)
	for c := range inst.Per {
		s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
	}
	res, err := s.Run()
	if err != nil {
		return res, err
	}
	if err := inst.Check(inst.Mem); err != nil {
		return res, fmt.Errorf("%s: %w", inst.Name, err)
	}
	return res, nil
}

// multiCycles builds and runs one configuration, returning cycles.
func multiCycles(kernel, graphName string, cores int, tech workloads.MultiTech, opts workloads.Options, cfg sim.Config) (int64, error) {
	inst, err := workloads.NewMulti(kernel, graphName, cores, tech, opts)
	if err != nil {
		return 0, err
	}
	res, err := runMulti(inst, cfg)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// Figure9 reproduces the multi-core scaling study (paper §6.4): for each
// core count, the geomean speedup of SWPF, SMT OpenMP, and Ghost
// Threading over the OpenMP-parallelized baseline on the same number of
// cores. Ghost-vs-OpenMP selection uses the paper's multi-core method —
// a training run on the profiling inputs, not the single-core heuristic.
// names restricts the kernel.graph set to a subset of Fig9Workloads()
// (nil = all of them).
func Figure9(names []string, progress func(string)) (*Fig9Result, error) {
	if names == nil {
		names = Fig9Workloads()
	}
	cfg := sim.DefaultConfig()
	res := &Fig9Result{Geomean: map[string]map[int]float64{}, Workloads: names}
	for _, tech := range []string{TechSWPF, TechSMT, TechGhost} {
		res.Geomean[tech] = map[int]float64{}
	}
	for _, name := range names {
		res.Rows = append(res.Rows, Fig9Row{Workload: name, Cycles: map[int]Fig9Cycles{}})
	}

	for _, cores := range Fig9CoreCounts {
		speed := map[string][]float64{}
		for i, name := range names {
			kernel, gname, _ := strings.Cut(name, ".")
			if progress != nil {
				progress(fmt.Sprintf("%s @ %d cores", name, cores))
			}
			var row Fig9Cycles
			var err error
			run := func(tech workloads.MultiTech, opts workloads.Options) int64 {
				if err != nil {
					return 0
				}
				var c int64
				c, err = multiCycles(kernel, gname, cores, tech, opts, cfg)
				return c
			}
			row.Baseline = run(workloads.MultiBaseline, workloads.DefaultOptions())
			row.SWPF = run(workloads.MultiSWPF, workloads.DefaultOptions())
			row.SMT = run(workloads.MultiSMT, workloads.DefaultOptions())
			// Ghost Threading: training-input comparison (paper §6.4).
			gt := run(workloads.MultiGhost, workloads.ProfileOptions())
			st := run(workloads.MultiSMT, workloads.ProfileOptions())
			// OpenMP's default-input run is the SMT column's, simulated above.
			row.Ghost, row.GhostSelected = row.SMT, st >= gt
			if row.GhostSelected {
				row.Ghost = run(workloads.MultiGhost, workloads.DefaultOptions())
			}
			if err != nil {
				return nil, err
			}
			res.Rows[i].Cycles[cores] = row
			base := float64(row.Baseline)
			speed[TechSWPF] = append(speed[TechSWPF], base/float64(row.SWPF))
			speed[TechSMT] = append(speed[TechSMT], base/float64(row.SMT))
			speed[TechGhost] = append(speed[TechGhost], base/float64(row.Ghost))
		}
		//detlint:ignore keyed assignment into Geomean[tech]; iteration order cannot reach the output
		for tech, vals := range speed {
			res.Geomean[tech][cores] = Geomean(vals)
		}
	}

	// "no omp": single-threaded baseline vs ghost (training-selected
	// against the baseline, since no OpenMP exists in this column).
	var noOmp []float64
	for i, name := range names {
		if progress != nil {
			progress(name + " (no omp)")
		}
		build, err := workloads.Lookup(name)
		if err != nil {
			return nil, err
		}
		// Training comparison at profiling scale. The baseline side is the
		// (memoized) profiling run: same machine, input and program.
		gRes, err := newVariantRuns(build(workloads.ProfileOptions()), cfg).run("ghost")
		if err != nil {
			return nil, fmt.Errorf("harness: fig9 %s training ghost: %w", name, err)
		}
		rep, err := profileWorkload(name, build, cfg)
		if err != nil {
			return nil, err
		}
		row := &res.Rows[i].NoOmp
		row.GhostSelected = gRes.Cycles < rep.TotalCycles

		vr := newVariantRuns(build(workloads.DefaultOptions()), cfg)
		baseRes, err := vr.run("baseline")
		if err != nil {
			return nil, fmt.Errorf("harness: fig9 %s baseline: %w", name, err)
		}
		row.Baseline, row.Ghost = baseRes.Cycles, baseRes.Cycles
		if row.GhostSelected {
			gRes, err := vr.run("ghost")
			if err != nil {
				return nil, fmt.Errorf("harness: fig9 %s ghost: %w", name, err)
			}
			row.Ghost = gRes.Cycles
		}
		noOmp = append(noOmp, float64(row.Baseline)/float64(row.Ghost))
	}
	res.NoOmp = Geomean(noOmp)
	return res, nil
}

// RenderFigure9 formats the scaling table.
func RenderFigure9(r *Fig9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workloads: %s\n", strings.Join(r.Workloads, " "))
	fmt.Fprintf(&b, "%-16s %10s", "technique", "no-omp")
	for _, c := range Fig9CoreCounts {
		fmt.Fprintf(&b, " %9dc", c)
	}
	b.WriteByte('\n')
	for _, tech := range []string{TechSWPF, TechSMT, TechGhost} {
		fmt.Fprintf(&b, "%-16s", tech)
		if tech == TechGhost {
			fmt.Fprintf(&b, " %10.2f", r.NoOmp)
		} else {
			fmt.Fprintf(&b, " %10s", "-")
		}
		for _, c := range Fig9CoreCounts {
			fmt.Fprintf(&b, " %10.2f", r.Geomean[tech][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
