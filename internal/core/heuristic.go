package core

import (
	"fmt"
	"sort"
	"strings"

	"ghostthread/internal/profile"
)

// HeuristicParams are the target-load selection thresholds (paper §4.1).
// The paper's numbers were tuned on an i7-12700; they transfer to the
// simulator because both express the same idea — "a load that stalls the
// pipeline for tens of cycles, inside a loop big enough for a slice to be
// cheaper than the original body, dominating the run time".
type HeuristicParams struct {
	MinCPI          float64 // condition 1: load CPI above this (paper: 21)
	MinLoopSize     float64 // condition 2: innermost-loop instructions/iteration above this (paper: 10)
	MinTaskCoverage float64 // condition 3a: load covers this fraction of the task (paper: 15%)
	MinFuncCoverage float64 // condition 3b: or this fraction of its function (paper: 80%)
}

// DefaultHeuristicParams returns the thresholds tuned for this
// simulator and IR. The paper's numbers (CPI > 21, size > 10) were tuned
// on an i7-12700 running x86-64; our IR is denser than x86 (no iterator
// or addressing redundancy) and the simulated DRAM latency is lower, so
// the equivalent cutoffs sit proportionally lower. The coverage cutoffs
// are the paper's own.
func DefaultHeuristicParams() HeuristicParams {
	return HeuristicParams{MinCPI: 7, MinLoopSize: 7.5, MinTaskCoverage: 0.15, MinFuncCoverage: 0.80}
}

// Target is a load selected for Ghost Threading prefetching.
type Target struct {
	LoadPC   int
	LoopID   int
	CPI      float64
	Coverage float64 // task coverage of the loop's aggregated hot loads
}

// SelectTargets applies the heuristic to a profile report:
//
//  1. the load's CPI exceeds MinCPI;
//  2. the innermost loop containing it executes more than MinLoopSize
//     instructions per iteration;
//  3. the load (or, for loops with several hot loads, their aggregate)
//     covers more than MinTaskCoverage of the task or MinFuncCoverage of
//     its function.
//
// All hot loads of a qualifying loop are returned, sorted by coverage.
func SelectTargets(r *profile.Report, hp HeuristicParams) []Target {
	var targets []Target
	for loopID := range r.Loops {
		l := &r.Loops[loopID]
		if l.Iterations == 0 || l.DynamicSize <= hp.MinLoopSize {
			continue
		}
		// Condition 1: hot loads in this loop.
		var hot []int
		var aggStall int64
		for _, pc := range l.LoadPCs {
			if r.Instrs[pc].CPI > hp.MinCPI {
				hot = append(hot, pc)
				aggStall += r.Instrs[pc].StallCycles
			}
		}
		if len(hot) == 0 {
			continue
		}
		// Condition 3: aggregated coverage when multiple hot loads share
		// the loop (paper §4.1 last sentence).
		covTask := 0.0
		if r.TotalCycles > 0 {
			covTask = float64(aggStall) / float64(r.TotalCycles)
		}
		covFunc := 0.0
		if fs := r.FuncStall[l.Loop.Func]; fs > 0 {
			covFunc = float64(aggStall) / float64(fs)
		}
		if covTask <= hp.MinTaskCoverage && covFunc <= hp.MinFuncCoverage {
			continue
		}
		for _, pc := range hot {
			targets = append(targets, Target{
				LoadPC: pc, LoopID: loopID,
				CPI: r.Instrs[pc].CPI, Coverage: covTask,
			})
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].Coverage != targets[j].Coverage {
			return targets[i].Coverage > targets[j].Coverage
		}
		return targets[i].LoadPC < targets[j].LoadPC
	})
	return targets
}

// Decision is the per-workload outcome of the ghost-vs-OpenMP choice
// (paper §4.1: "If a target is identified by the heuristic in a
// parallelizable loop, we replace the thread for parallelization by our
// ghost thread").
type Decision int

// Decision values.
const (
	UseBaseline Decision = iota // no targets, no parallel version
	UseParallel                 // no targets; keep the OpenMP SMT thread
	UseGhost                    // targets found; issue ghost threads
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case UseBaseline:
		return "baseline"
	case UseParallel:
		return "smt-openmp"
	case UseGhost:
		return "ghost"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Decide maps heuristic output to the technique used for the "Ghost
// Threading" bar of the evaluation figures.
func Decide(targets []Target, hasGhost, hasParallel bool) Decision {
	if len(targets) > 0 && hasGhost {
		return UseGhost
	}
	if hasParallel {
		return UseParallel
	}
	return UseBaseline
}

// DescribeTargets renders the selection for logs and gtrun -profile.
func DescribeTargets(r *profile.Report, ts []Target) string {
	if len(ts) == 0 {
		return "no target loads selected"
	}
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "target load pc=%d loop=%s cpi=%.1f coverage=%.1f%%\n",
			t.LoadPC, r.Prog.Loops[t.LoopID].Name, t.CPI, 100*t.Coverage)
	}
	return b.String()
}
