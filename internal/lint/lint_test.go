package lint_test

import (
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/isa"
	"ghostthread/internal/lint"
	"ghostthread/internal/workloads"
)

// TestSweepAllWorkloads is the tier-1 analysis sweep: every variant of
// every registered workload must come through the full checker battery
// with zero error-severity findings. Race warnings are expected — the
// relaxed-consistency graph kernels (bc/bfs/sssp) tolerate their races
// by design and are downgraded, not silenced.
func TestSweepAllWorkloads(t *testing.T) {
	reports, err := lint.All(lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 30 {
		t.Fatalf("sweep covered only %d workloads; registry should hold the full suite", len(reports))
	}
	raceWarn := false
	for name, rep := range reports {
		for _, f := range rep.Findings {
			if f.Severity == analysis.SevError {
				t.Errorf("%s: %s", name, f)
			}
			if f.Severity == analysis.SevWarn && f.Checker == "race" {
				raceWarn = true
			}
		}
	}
	if !raceWarn {
		t.Error("no race warnings from the relaxed graph kernels; the race lint may have gone blind")
	}
}

// TestMultiCoreBuildsHaveNoDeadDefinitions holds the figure-9 builds,
// which gtlint's registry sweep never sees, to the dead-definition rule
// Workload enforces: every NewMulti build (bfs, cc and pr on the five
// graphs at 1, 2 and 4 cores under each technique) at profile scale,
// each core's main program checked with its helpers.
func TestMultiCoreBuildsHaveNoDeadDefinitions(t *testing.T) {
	pats := map[*isa.Program]*analysis.Patterns{}
	analyze := func(p *isa.Program) *analysis.Patterns {
		if pats[p] == nil {
			pats[p] = analysis.AnalyzeAddrPatterns(p)
		}
		return pats[p]
	}
	builds := 0
	for _, kernel := range workloads.MultiKernels {
		for _, gn := range workloads.GraphNames {
			for _, cores := range []int{1, 2, 4} {
				for _, tech := range []workloads.MultiTech{workloads.MultiBaseline, workloads.MultiSWPF,
					workloads.MultiSMT, workloads.MultiGhost} {
					in, err := workloads.NewMulti(kernel, gn, cores, tech, workloads.ProfileOptions())
					if err != nil {
						t.Fatal(err)
					}
					builds++
					for _, cp := range in.Per {
						helpers := make([]*analysis.Patterns, len(cp.Helpers))
						for i, hp := range cp.Helpers {
							helpers[i] = analyze(hp)
						}
						for _, f := range analysis.CheckDeadDefs(analyze(cp.Main), helpers) {
							t.Errorf("%s: %s", in.Name, f)
						}
					}
				}
			}
		}
	}
	if builds != 180 {
		t.Errorf("checked %d multi-core builds, want 180", builds)
	}
}

func TestWorkloadMinimalityReport(t *testing.T) {
	rep, err := lint.Workload("camel", lint.Options{Minimality: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Checker == "minimality" && f.Severity == analysis.SevInfo {
			found = true
		}
	}
	if !found {
		t.Fatal("minimality report missing for camel's extracted slice")
	}
}

func TestWorkloadUnknown(t *testing.T) {
	if _, err := lint.Workload("no-such-workload", lint.Options{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestStaticTargets checks the annotation-driven target derivation: the
// camel baseline marks its indirect load, and the deepest-loop target
// must come first.
func TestStaticTargets(t *testing.T) {
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}
	inst := build(workloads.ProfileOptions())
	targets := lint.StaticTargets(inst.Baseline.Main)
	if len(targets) == 0 {
		t.Fatal("no static targets derived from camel's annotations")
	}
	for _, tg := range targets {
		if tg.LoopID < 0 || tg.LoopID >= len(inst.Baseline.Main.Loops) {
			t.Fatalf("target loop %d out of range", tg.LoopID)
		}
	}
}
