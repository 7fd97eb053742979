// Package profile is the reproduction's stand-in for OptiWISE [11], the
// profiling tool the paper uses to identify target loads (§4.1): it runs
// a workload once on the simulated machine and produces per-static-
// instruction CPI values and per-loop metrics (iteration counts, dynamic
// size, coverage).
//
// CPI attribution uses commit-stall accounting: every cycle a thread
// fails to commit while its ROB is non-empty is charged to the
// instruction blocking the head. Long-latency loads that cause
// full-window stalls therefore accumulate large CPIs, exactly the signal
// the selection heuristic needs.
package profile

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/sim"
)

// InstrStat is the profile of one static instruction.
type InstrStat struct {
	PC          int
	Op          isa.Op
	Executions  int64
	StallCycles int64
	CPI         float64 // StallCycles / Executions
	LoopID      int     // innermost loop, or -1
}

// LoopStat is the profile of one annotated loop.
type LoopStat struct {
	Loop        isa.Loop
	Iterations  int64
	DynamicSize float64 // committed instructions per iteration (own body only)
	StallCycles int64   // total stall attributed to the loop body
	LoadPCs     []int   // PCs of loads in this loop (innermost)
}

// Report is the result of profiling one program run.
type Report struct {
	Prog        *isa.Program
	TotalCycles int64
	TotalStall  int64
	Instrs      []InstrStat      // indexed by PC
	Loops       []LoopStat       // indexed by loop ID
	FuncStall   map[string]int64 // stall attributed per function/region
}

// Run profiles prog (with helpers, normally nil — profiling targets the
// single-threaded baseline) on a machine built from cfg over m.
func Run(cfg sim.Config, m *mem.Memory, prog *isa.Program, helpers []*isa.Program) (*Report, error) {
	s := sim.New(cfg, m)
	s.Load(0, prog, helpers)
	res, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	stall, exec := s.Core(0).PCProfile(0)
	return build(prog, res.CoreCycles[0], stall, exec), nil
}

// build assembles a Report from raw attribution arrays (exposed for
// tests and for profiling runs driven elsewhere).
func build(prog *isa.Program, cycles int64, stall, exec []int64) *Report {
	r := &Report{
		Prog:        prog,
		TotalCycles: cycles,
		Instrs:      make([]InstrStat, len(prog.Code)),
		Loops:       make([]LoopStat, len(prog.Loops)),
		FuncStall:   make(map[string]int64),
	}
	for pc := range prog.Code {
		in := &prog.Code[pc]
		st := InstrStat{PC: pc, Op: in.Op, Executions: exec[pc], StallCycles: stall[pc], LoopID: int(in.Loop)}
		if st.Executions > 0 {
			st.CPI = float64(st.StallCycles) / float64(st.Executions)
		}
		r.Instrs[pc] = st
		r.TotalStall += st.StallCycles
		if in.Loop >= 0 {
			l := &r.Loops[in.Loop]
			l.StallCycles += st.StallCycles
			r.FuncStall[prog.Loops[in.Loop].Func] += st.StallCycles
			if in.Op == isa.OpLoad && !in.HasFlag(isa.FlagSync) {
				l.LoadPCs = append(l.LoadPCs, pc)
			}
		}
	}
	for id := range prog.Loops {
		l := &r.Loops[id]
		l.Loop = prog.Loops[id]
		if be := l.Loop.Backedge; be >= 0 {
			l.Iterations = exec[be]
		}
		if l.Iterations > 0 {
			var committed int64
			for pc := l.Loop.Head; pc < l.Loop.End; pc++ {
				if int(prog.Code[pc].Loop) == id {
					committed += exec[pc]
				}
			}
			l.DynamicSize = float64(committed) / float64(l.Iterations)
		}
	}
	return r
}

// Equal reports whether two reports carry bit-identical profiling data
// (everything except the program pointer). The event-skip equivalence
// tests use it to prove CPI attribution is unchanged by fast-forwarding.
func (r *Report) Equal(o *Report) bool {
	return r.TotalCycles == o.TotalCycles &&
		r.TotalStall == o.TotalStall &&
		reflect.DeepEqual(r.Instrs, o.Instrs) &&
		reflect.DeepEqual(r.Loops, o.Loops) &&
		reflect.DeepEqual(r.FuncStall, o.FuncStall)
}

// CoverageTask returns the fraction of total run time attributed to the
// given instruction.
func (r *Report) CoverageTask(pc int) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.Instrs[pc].StallCycles) / float64(r.TotalCycles)
}

// CoverageFunc returns the fraction of the enclosing function's
// attributed time spent in the given instruction.
func (r *Report) CoverageFunc(pc int) float64 {
	loopID := r.Instrs[pc].LoopID
	if loopID < 0 {
		return 0
	}
	fs := r.FuncStall[r.Prog.Loops[loopID].Func]
	if fs == 0 {
		return 0
	}
	return float64(r.Instrs[pc].StallCycles) / float64(fs)
}

// HotLoads returns instruction PCs of loads sorted by stall cycles,
// hottest first (the headline list of gtrun -profile).
func (r *Report) HotLoads() []int {
	var pcs []int
	for pc := range r.Instrs {
		if r.Instrs[pc].Op == isa.OpLoad && r.Instrs[pc].Executions > 0 {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool {
		return r.Instrs[pcs[i]].StallCycles > r.Instrs[pcs[j]].StallCycles
	})
	return pcs
}

// String renders a human-readable profile (the gtrun -profile output).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile of %s: %d cycles, %d attributed stall cycles\n",
		r.Prog.Name, r.TotalCycles, r.TotalStall)
	fmt.Fprintf(&b, "hot loads:\n")
	for i, pc := range r.HotLoads() {
		if i >= 10 {
			break
		}
		st := r.Instrs[pc]
		loopName := "-"
		if st.LoopID >= 0 {
			loopName = r.Prog.Loops[st.LoopID].Name
		}
		fmt.Fprintf(&b, "  pc=%-5d loop=%-20s exec=%-10d CPI=%-8.1f coverage=%5.1f%% func-cov=%5.1f%%\n",
			pc, loopName, st.Executions, st.CPI, 100*r.CoverageTask(pc), 100*r.CoverageFunc(pc))
	}
	fmt.Fprintf(&b, "loops:\n")
	for _, l := range r.Loops {
		if l.Iterations == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-24s func=%-12s iters=%-10d size=%-6.1f stall=%d\n",
			l.Loop.Name, l.Loop.Func, l.Iterations, l.DynamicSize, l.StallCycles)
	}
	return b.String()
}
