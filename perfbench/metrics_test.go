package main

import (
	"math"
	"testing"

	"ghostthread/internal/core"
	"ghostthread/internal/harness"
)

// A row whose heuristic fell back to OpenMP: the ghost and compiler
// columns both re-run the smt-openmp variant.
func fallbackRow() *harness.Row {
	return &harness.Row{
		Workload:       "tc.kron",
		Decision:       core.UseParallel,
		BaselineCycles: 1000,
		Speedup: map[string]float64{
			harness.TechSWPF: 1000.0 / 800, harness.TechSMT: 1000.0 / 500,
			harness.TechGhost: 1000.0 / 500, harness.TechCompiler: 1000.0 / 500,
		},
		Unavailable: map[string]string{},
		Prefetch:    map[string]harness.PrefetchReport{harness.TechSWPF: {Issued: 7}},
	}
}

// A ghost-selected row whose compiler ghost issued nothing.
func ghostRow() *harness.Row {
	return &harness.Row{
		Workload:       "hj2",
		Decision:       core.UseGhost,
		Targets:        2,
		BaselineCycles: 900,
		Speedup: map[string]float64{
			harness.TechSWPF: 900.0 / 600, harness.TechGhost: 900.0 / 450, harness.TechCompiler: 900.0 / 1200,
		},
		Unavailable: map[string]string{harness.TechSMT: expectedX},
		Prefetch:    map[string]harness.PrefetchReport{harness.TechGhost: {Issued: 40}},
	}
}

func TestSimCyclesNumeratorIgnoresDuplicateSimulations(t *testing.T) {
	runs := []simRun{{"w/profile", 100}, {"w/baseline", 1000}, {"w/smt-openmp", 500}}
	want := distinctCycles(runs)
	if want != 1600 {
		t.Fatalf("distinct cycles = %d, want 1600", want)
	}
	// The harness simulating smt-openmp two more times (the OpenMP
	// fallback of the ghost and compiler columns) adds no cycles.
	dup := append(append([]simRun{}, runs...), simRun{"w/smt-openmp", 500}, simRun{"w/smt-openmp", 500})
	if got := distinctCycles(dup); got != want {
		t.Errorf("with duplicates: %d, want %d", got, want)
	}
	if got := redundantRuns(dup); got != 2 {
		t.Errorf("redundant runs = %d, want 2", got)
	}

	// From a reported row: the numerator depends on which program each
	// column ran, not on how often the harness ran it (Row.SimCycles).
	rec := fig6Record(fallbackRow())
	prof := map[string]int64{"tc.kron": 100}
	want = 100 + 1000 + 800 + 500
	if got := distinctCycles(fig6Runs([]rowRecord{rec}, prof)); got != want {
		t.Errorf("fallback row numerator = %d, want %d", got, want)
	}
	r := fallbackRow()
	r.SimCycles = 99999 // however many re-simulations the harness counted
	if got := distinctCycles(fig6Runs([]rowRecord{fig6Record(r)}, prof)); got != want {
		t.Errorf("numerator moved with Row.SimCycles: %d, want %d", got, want)
	}
}

func TestGeomeanCountsUnavailableColumnAsOne(t *testing.T) {
	rows := []*harness.Row{fallbackRow(), ghostRow()}
	m := &harness.Matrix{Rows: rows}
	var recs []rowRecord
	for _, r := range rows {
		recs = append(recs, fig6Record(r))
	}
	for _, tech := range harness.Techniques {
		got, want := fig6Geomean(recs, tech), m.GeomeanSpeedup(tech)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s geomean = %v, harness %v", tech, got, want)
		}
	}
	// hj2 has no OpenMP version: the smt column is sqrt(2.0 × 1.0).
	if got := fig6Geomean(recs, harness.TechSMT); math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Errorf("smt geomean = %v, want sqrt(2)", got)
	}
	if got := geomean([]float64{4, 0}, []bool{true, false}); got != 2 {
		t.Errorf("geomean(4, unavailable) = %v, want 2", got)
	}
}

func TestSilentGhostsCountOnlyRunsThatCarriedAHelper(t *testing.T) {
	runs := fig6GhostRuns([]rowRecord{fig6Record(fallbackRow()), fig6Record(ghostRow())})
	// Fallback row: both columns ran smt-openmp (no ghost, no prefetch) —
	// not silent. Ghost row: the manual ghost prefetched; the compiler
	// ghost issued nothing — silent.
	if got := silentGhosts(runs); got != 1 {
		t.Errorf("silent ghosts = %d, want 1 (runs %+v)", got, runs)
	}
	if got := prefetchingFrac(runs); got != 0.5 {
		t.Errorf("prefetching fraction = %v, want 0.5", got)
	}
	if got := silentGhosts([]ghostRun{{Helper: false}, {Helper: false, Issued: 3}}); got != 0 {
		t.Errorf("helperless runs counted silent: %d", got)
	}
	if got := prefetchingFrac(nil); got != 1 {
		t.Errorf("prefetching fraction with no ghost runs = %v, want 1", got)
	}
}

func TestFig6AttemptsSkipOnlyTheExpectedX(t *testing.T) {
	recs := []rowRecord{fig6Record(fallbackRow()), fig6Record(ghostRow())}
	reasons := map[string]map[string]string{
		"tc.kron": {},
		"hj2":     {harness.TechSMT: expectedX},
	}
	if a, f := fig6Attempts(recs, reasons); a != 9 || f != 0 {
		t.Errorf("attempted, failed = %d, %d; want 9, 0", a, f)
	}
	reasons["tc.kron"] = map[string]string{harness.TechSWPF: "result check: wrong sum"}
	if a, f := fig6Attempts(recs, reasons); a != 9 || f != 1 {
		t.Errorf("with a failed check: attempted, failed = %d, %d; want 9, 1", a, f)
	}
}
