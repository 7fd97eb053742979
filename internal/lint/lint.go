// Package lint sweeps the static analyses over built workloads: every
// variant of every registered workload is validated, its loop annotations
// cross-checked against the reconstructed CFG, ghost helpers put through
// the safety plan, Parallel variants through the race lint, and the
// compiler extractor exercised end to end (with a minimality report on
// the slice it produces). cmd/gtlint and the tier-1 sweep test are thin
// wrappers around Workload/All.
package lint

import (
	"errors"
	"fmt"
	"sort"

	"ghostthread/internal/analysis"
	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// Options configures a lint run.
type Options struct {
	// Minimality includes the info-severity slice-minimality report for
	// compiler-extracted ghosts.
	Minimality bool
}

// Workload lints every variant of one registered workload.
func Workload(name string, opts Options) (*analysis.Report, error) {
	build, err := workloads.Lookup(name)
	if err != nil {
		return nil, err
	}
	// The analyses are static, so the profiling-scale instance is
	// representative and much cheaper to build than the evaluation one.
	wopts := workloads.ProfileOptions()
	inst := build(wopts)
	rep := &analysis.Report{}

	// One analysis per program, shared by every check below (variants
	// share programs: the Parallel main is often the baseline's).
	pats := map[*isa.Program]*analysis.Patterns{}
	analyze := func(progs ...*isa.Program) []*analysis.Patterns {
		out := make([]*analysis.Patterns, len(progs))
		for i, p := range progs {
			if p == nil {
				continue
			}
			if pats[p] == nil {
				pats[p] = analysis.AnalyzeAddrPatterns(p)
			}
			out[i] = pats[p]
		}
		return out
	}

	// Structural checks on every program of every variant: ISA-level
	// validation plus the loop-annotation cross-check.
	seen := map[*isa.Program]bool{}
	for _, nv := range inst.Variants() {
		progs := append([]*isa.Program{nv.Variant.Main}, nv.Variant.Helpers...)
		for _, p := range progs {
			if p == nil || seen[p] {
				continue
			}
			seen[p] = true
			if err := p.Validate(); err != nil {
				rep.Add(analysis.Finding{
					Checker: "validate", Program: p.Name, PC: -1,
					Severity: analysis.SevError, Msg: err.Error(),
				})
				continue
			}
			rep.Add(analysis.CrossCheckLoops(analyze(p)[0])...)
		}
	}

	// Manual ghost helpers: the full safety plan.
	if inst.Ghost != nil {
		planRep, _ := core.PlanPatterns(analyze(inst.Ghost.Helpers...), inst.Counters)
		rep.Add(planRep.Findings...)
	}

	// Parallel (SMT-OpenMP) variants: the race lint, downgraded to
	// warnings for relaxed-consistency kernels.
	if inst.Parallel != nil {
		rep.Add(analysis.CheckRaces(analyze(inst.Parallel.Main)[0],
			analyze(inst.Parallel.Helpers...), inst.Relaxed())...)
	}

	// Compiler extraction from the annotated baseline. The extractor runs
	// the safety plan itself; an unsliceable program is merely reported.
	// Extraction is permissive here (AllowUnproved) so the lint can
	// surface translation-validation failures as findings instead of
	// losing the slice: a compiler ghost with an unproven address stream
	// still runs (the paper's §6.1 behaviour), it just prefetches badly.
	if targets := StaticTargets(inst.Baseline.Main); len(targets) > 0 {
		ext, err := slice.ExtractWith(inst.Baseline.Main, targets, wopts.Sync, inst.Counters,
			slice.Options{AllowUnproved: true})
		switch {
		case errors.Is(err, slice.ErrUnsliceable):
			rep.Add(analysis.Finding{
				Checker: "extract", Program: inst.Baseline.Main.Name, PC: -1,
				Severity: analysis.SevWarn, Msg: err.Error(),
			})
		case err != nil:
			rep.Add(analysis.Finding{
				Checker: "extract", Program: inst.Baseline.Main.Name, PC: -1,
				Severity: analysis.SevError, Msg: err.Error(),
			})
		default:
			for _, v := range ext.Verdicts {
				if v.Status != analysis.Unproved {
					continue
				}
				for _, tv := range v.Targets {
					if tv.Status != analysis.Unproved {
						continue
					}
					rep.Add(analysis.Finding{
						Checker: "verify", Program: ext.Ghost.Name, PC: tv.TargetPC,
						Severity: analysis.SevWarn,
						Msg: fmt.Sprintf("UNPROVED: %s (compiler slice runs but may prefetch off-stream)",
							tv.Reason),
					})
				}
				if v.Err != "" {
					rep.Add(analysis.Finding{
						Checker: "verify", Program: ext.Ghost.Name, PC: -1,
						Severity: analysis.SevWarn, Msg: "UNPROVED: " + v.Err,
					})
				}
			}
			if opts.Minimality {
				rep.Add(analysis.ReportMinimalityVs(ext.GhostPatterns, ext.MainPatterns)...)
			}
		}
	}

	rep.Dedupe()
	return rep, nil
}

// All lints every registered workload, returning per-workload reports in
// name order.
func All(opts Options) (map[string]*analysis.Report, error) {
	out := map[string]*analysis.Report{}
	for _, e := range workloads.Entries() {
		rep, err := Workload(e.Name, opts)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", e.Name, err)
		}
		out[e.Name] = rep
	}
	return out, nil
}

// StaticTargets derives an extraction target list from the baseline's
// programmer annotations alone (no profiling): every FlagTargetLoad load
// inside an annotated loop, ordered deepest loop first so the primary
// target — whose loop gets synchronised — is the innermost one, matching
// what the profile-driven heuristic picks for these kernels.
func StaticTargets(p *isa.Program) []core.Target {
	depth := func(loop int32) int {
		d := 0
		for l := int(loop); l >= 0 && l < len(p.Loops); l = p.Loops[l].Parent {
			d++
		}
		return d
	}
	var out []core.Target
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op == isa.OpLoad && in.HasFlag(isa.FlagTargetLoad) && in.Loop >= 0 {
			out = append(out, core.Target{LoadPC: pc, LoopID: int(in.Loop)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := depth(int32(out[i].LoopID)), depth(int32(out[j].LoopID))
		if di != dj {
			return di > dj
		}
		return out[i].LoadPC < out[j].LoadPC
	})
	return out
}
