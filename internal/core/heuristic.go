package core

import (
	"fmt"
	"sort"
	"strings"

	"ghostthread/internal/isa"
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

	// SpawnDepth places the ghost's spawn region: the loop this many
	// levels below the outermost loop enclosing LoopID, so the ghost is
	// spawned and joined once per entry of that loop. 0, the zero value,
	// is the outermost loop (one spawn per run). See SelectTargets.
	SpawnDepth int
	// SpawnCoverage is the task coverage of one average entry of the
	// spawn region loop.
	SpawnCoverage float64
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
// All hot loads of a qualifying loop are returned, sorted by coverage,
// each carrying its loop's spawn region (see spawnRegion).
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
		depth, spawnCov := spawnRegion(r, loopID, hp)
		for _, pc := range hot {
			targets = append(targets, Target{
				LoadPC: pc, LoopID: loopID,
				CPI: r.Instrs[pc].CPI, Coverage: covTask,
				SpawnDepth: depth, SpawnCoverage: spawnCov,
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

// spawnRegion chooses where a ghost for target loop loopID is spawned:
// once per entry of the innermost loop enclosing loopID whose average
// entry alone covers more than MinTaskCoverage of the profiled cycles
// (condition 3a, applied to one entry of the loop nest), else once per
// run at the outermost enclosing loop. It returns the chosen loop's
// depth below the outermost loop (0 = outermost; a target loop nested
// in nothing is its own outermost loop) and that loop's per-entry
// coverage. A region entered once per BFS level or per label-propagation
// pass restarts the ghost from main's current frontier; one that covers
// little per entry (a road graph's thousands of tiny levels) would pay a
// spawn for too little work, so it stays on the outermost loop.
func spawnRegion(r *profile.Report, loopID int, hp HeuristicParams) (depth int, coverage float64) {
	chain := enclosing(r.Prog.Loops, loopID)
	outer := len(chain) - 1
	for i := 1; i < outer; i++ {
		if cov := entryCoverage(r, chain[i]); cov > hp.MinTaskCoverage {
			return outer - i, cov
		}
	}
	return 0, entryCoverage(r, chain[outer])
}

// entryCoverage is the task coverage of one average entry of loop l:
// the stall cycles attributed to its whole nest, per entry, over the
// profiled cycles. Entries come from the enclosing loop's iterations
// (an outermost loop is entered once): header executions minus backedge
// executions miscount a bottom-tested loop, whose backedge runs on every
// iteration (cc_passes would read 0 entries). An inner loop skipped on
// some parent iterations is thus credited less per entry than it covers,
// which errs towards the outermost region.
func entryCoverage(r *profile.Report, l int) float64 {
	lp := &r.Prog.Loops[l]
	entries := int64(1)
	if lp.Parent >= 0 {
		entries = r.Loops[lp.Parent].Iterations
	}
	if entries <= 0 || r.TotalCycles <= 0 {
		return 0
	}
	var stall int64
	for pc := lp.Head; pc < lp.End; pc++ {
		stall += r.Instrs[pc].StallCycles
	}
	return float64(stall) / float64(entries) / float64(r.TotalCycles)
}

// SpawnLoop resolves t's spawn region to a loop ID of loops (the
// program t was selected on, or one with the same loop nest): the loop
// t.SpawnDepth levels below the outermost loop enclosing t.LoopID,
// clamped to t.LoopID itself.
func SpawnLoop(loops []isa.Loop, t Target) int {
	chain := enclosing(loops, t.LoopID)
	return chain[max(len(chain)-1-t.SpawnDepth, 0)]
}

// enclosing lists loop l, then each loop enclosing it, outermost last.
func enclosing(loops []isa.Loop, l int) []int {
	var chain []int
	for ; l >= 0; l = loops[l].Parent {
		chain = append(chain, l)
	}
	return chain
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
		fmt.Fprintf(&b, "target load pc=%d loop=%s cpi=%.1f coverage=%.1f%% spawn=%s (%.1f%% per entry)\n",
			t.LoadPC, r.Prog.Loops[t.LoopID].Name, t.CPI, 100*t.Coverage,
			r.Prog.Loops[SpawnLoop(r.Prog.Loops, t)].Name, 100*t.SpawnCoverage)
	}
	return b.String()
}
