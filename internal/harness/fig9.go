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
// core count, plus the "no omp" single-threaded column.
type Fig9Result struct {
	// Geomean[tech][cores] is the geomean speedup over the same-core-count
	// parallel baseline.
	Geomean map[string]map[int]float64
	// NoOmp is the single-threaded Ghost Threading geomean (the paper's
	// "no omp" column).
	NoOmp float64
	// Workloads lists the kernel.graph set evaluated.
	Workloads []string
}

// fig9Workloads returns the kernel.graph pairs with multi-core variants.
func fig9Workloads() [][2]string {
	var out [][2]string
	for _, k := range workloads.MultiKernels {
		for _, gn := range workloads.GraphNames {
			out = append(out, [2]string{k, gn})
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
func Figure9(progress func(string)) (*Fig9Result, error) {
	cfg := sim.DefaultConfig()
	res := &Fig9Result{Geomean: map[string]map[int]float64{}}
	for _, tech := range []string{TechSWPF, TechSMT, TechGhost} {
		res.Geomean[tech] = map[int]float64{}
	}

	for _, kg := range fig9Workloads() {
		res.Workloads = append(res.Workloads, kg[0]+"."+kg[1])
	}

	for _, cores := range Fig9CoreCounts {
		speed := map[string][]float64{}
		for _, kg := range fig9Workloads() {
			kernel, gname := kg[0], kg[1]
			if progress != nil {
				progress(fmt.Sprintf("%s.%s @ %d cores", kernel, gname, cores))
			}
			base, err := multiCycles(kernel, gname, cores, workloads.MultiBaseline, workloads.DefaultOptions(), cfg)
			if err != nil {
				return nil, err
			}
			var smt int64
			for _, tech := range []workloads.MultiTech{workloads.MultiSWPF, workloads.MultiSMT} {
				c, err := multiCycles(kernel, gname, cores, tech, workloads.DefaultOptions(), cfg)
				if err != nil {
					return nil, err
				}
				name := TechSWPF
				if tech == workloads.MultiSMT {
					name, smt = TechSMT, c
				}
				speed[name] = append(speed[name], float64(base)/float64(c))
			}
			// Ghost Threading: training-input comparison (paper §6.4).
			gt, err := multiCycles(kernel, gname, cores, workloads.MultiGhost, workloads.ProfileOptions(), cfg)
			if err != nil {
				return nil, err
			}
			st, err := multiCycles(kernel, gname, cores, workloads.MultiSMT, workloads.ProfileOptions(), cfg)
			if err != nil {
				return nil, err
			}
			// OpenMP's default-input run is the SMT column's, simulated above.
			c := smt
			if st >= gt {
				c, err = multiCycles(kernel, gname, cores, workloads.MultiGhost, workloads.DefaultOptions(), cfg)
				if err != nil {
					return nil, err
				}
			}
			speed[TechGhost] = append(speed[TechGhost], float64(base)/float64(c))
		}
		//detlint:ignore keyed assignment into Geomean[tech]; iteration order cannot reach the output
		for tech, vals := range speed {
			res.Geomean[tech][cores] = Geomean(vals)
		}
	}

	// "no omp": single-threaded baseline vs ghost (training-selected
	// against the baseline, since no OpenMP exists in this column).
	var noOmp []float64
	for _, kg := range fig9Workloads() {
		name := kg[0] + "." + kg[1]
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
		useGhost := gRes.Cycles < rep.TotalCycles

		vr := newVariantRuns(build(workloads.DefaultOptions()), cfg)
		baseRes, err := vr.run("baseline")
		if err != nil {
			return nil, fmt.Errorf("harness: fig9 %s baseline: %w", name, err)
		}
		cycles := baseRes.Cycles
		if useGhost {
			gRes, err := vr.run("ghost")
			if err != nil {
				return nil, fmt.Errorf("harness: fig9 %s ghost: %w", name, err)
			}
			cycles = gRes.Cycles
		}
		noOmp = append(noOmp, float64(baseRes.Cycles)/float64(cycles))
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
