package main

import "math"

// simRun is one simulation behind a reported result, keyed by what was
// simulated (workload, program and machine), not by who asked for it.
type simRun struct {
	Key    string
	Cycles int64
}

// distinctCycles is the sim_cycles_per_s numerator: every profile run,
// baseline run and distinct variant run counts once, however many times
// the harness simulated it. Removing a redundant simulation therefore
// lowers wall time without lowering the numerator.
func distinctCycles(runs []simRun) int64 {
	seen := map[string]bool{}
	var n int64
	for _, r := range runs {
		if seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		n += r.Cycles
	}
	return n
}

// redundantRuns counts the simulations that repeat an earlier key.
func redundantRuns(runs []simRun) int {
	seen := map[string]bool{}
	n := 0
	for _, r := range runs {
		if seen[r.Key] {
			n++
		}
		seen[r.Key] = true
	}
	return n
}

// geomean is the geometric mean of per-row speedups, where a row whose
// column is unavailable contributes 1.0 — the convention of
// harness.Matrix.GeomeanSpeedup and the paper's geomeans.
func geomean(speedups []float64, available []bool) float64 {
	if len(speedups) == 0 {
		return 1
	}
	var sum float64
	for i, v := range speedups {
		if !available[i] || v <= 0 {
			v = 1
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(speedups)))
}

// ghostRun is one ghost-column or compiler-column result. Helper is set
// only when the run's program carried a ghost helper; a column that fell
// back to the baseline or to OpenMP carries none.
type ghostRun struct {
	Helper bool
	Issued int64
}

// silentGhosts counts the runs that carried a ghost helper and issued no
// prefetch.
func silentGhosts(runs []ghostRun) int {
	n := 0
	for _, r := range runs {
		if r.Helper && r.Issued == 0 {
			n++
		}
	}
	return n
}

// prefetchingFrac is the share of ghost-carrying runs that issued at
// least one prefetch: 1 − silent ÷ carried, and 1.0 when no run carried a
// ghost (nothing can be silent).
func prefetchingFrac(runs []ghostRun) float64 {
	carried := 0
	for _, r := range runs {
		if r.Helper {
			carried++
		}
	}
	if carried == 0 {
		return 1
	}
	return 1 - float64(silentGhosts(runs))/float64(carried)
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
