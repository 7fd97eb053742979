package analysis

import "ghostthread/internal/isa"

// pureOps are side-effect-free value producers: safe to call dead when
// unused and hoistable when loop-invariant.
func pureOp(op isa.Op) bool {
	switch op {
	case isa.OpConst, isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv,
		isa.OpRem, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpMin, isa.OpMax, isa.OpAddI, isa.OpMulI, isa.OpAndI,
		isa.OpXorI, isa.OpShlI, isa.OpShrI:
		return true
	}
	return false
}

// deadDef reports whether the instruction at pc is a dead definition: a
// reachable, side-effect-free value computation whose result no
// instruction reads.
func deadDef(s *SSA, pc int) bool {
	in := &s.G.Prog.Code[pc]
	return s.G.ReachablePC(pc) && pureOp(in.Op) && in.Op.HasDst() && len(s.Uses(pc)) == 0
}

// CheckDeadDefs reports every dead definition (deadDef) in the programs
// of one variant, at error severity: a generated program carries only
// the instructions that earn their place, as the paper's p-slices do
// (§4.4). Helpers inherit the main thread's registers at spawn, so a
// main definition of a register that some helper reads before writing
// it counts as used.
func CheckDeadDefs(main *Patterns, helpers []*Patterns) []Finding {
	var inherited RegSet
	for _, h := range helpers {
		live := h.G.liveIn()[h.G.BlockOf[0]]
		inherited.Union(&live)
	}
	var out []Finding
	for i, pt := range append([]*Patterns{main}, helpers...) {
		for pc, in := range pt.Prog.Code {
			if deadDef(pt.S, pc) && !(i == 0 && inherited.Has(in.Dst)) {
				out = append(out, finding("dead-def", pt.Prog, pc, SevError,
					"dead definition: result of %s is never read", in.Op))
			}
		}
	}
	return out
}

// ReportMinimality audits how tight a compiler-extracted ghost is: a
// p-slice should contain nothing but the address chain of the prefetch
// and its synchronization segment. It reports (as information, never
// errors — an over-fat slice is slow, not wrong):
//
//   - dead instructions: a pure value computation whose result reaches no
//     use, or a load nothing consumes (a dead load still costs a cache
//     access on the ghost's SMT context, the exact overhead slicing is
//     meant to shed);
//   - loop-invariant instructions: pure computations inside a loop whose
//     operands are all defined outside it, re-executed every iteration;
//   - a summary of instruction counts (total / sync / dead / invariant).
//
// pt is the ghost's analysis.
func ReportMinimality(pt *Patterns) []Finding {
	p, g, loops := pt.Prog, pt.G, pt.F
	var out []Finding
	dead, invariant, syncN, reachableN := 0, 0, 0, 0
	for pc := range p.Code {
		in := &p.Code[pc]
		if !g.ReachablePC(pc) {
			continue
		}
		reachableN++
		if in.HasFlag(isa.FlagSync) {
			syncN++
			continue // the sync segment is fixed overhead, not slice fat
		}
		if deadDef(pt.S, pc) || in.Op == isa.OpLoad && len(pt.S.Uses(pc)) == 0 {
			dead++
			out = append(out, finding("minimality", p, pc, SevInfo,
				"dead instruction: result of %s is never used", in.Op))
			continue
		}
		li := loops.InnermostLoop(g.BlockOf[pc])
		if li >= 0 && pureOp(in.Op) && in.Op.NumSrcs() > 0 && in.Dst != in.Src1 &&
			(in.Op.NumSrcs() < 2 || in.Dst != in.Src2) {
			l := &loops.Loops[li]
			allOutside := true
			for _, r := range srcRegs(in) {
				defs := pt.S.DefsOf(pc, r)
				if len(defs) == 0 {
					allOutside = false // live-in from spawn: can't judge
					break
				}
				for _, d := range defs {
					if l.Blocks[g.BlockOf[d]] {
						allOutside = false
						break
					}
				}
			}
			if allOutside {
				invariant++
				out = append(out, finding("minimality", p, pc, SevInfo,
					"loop-invariant instruction: %s recomputes the same value every iteration", in.Op))
			}
		}
	}
	out = append(out, finding("minimality", p, 0, SevInfo,
		"slice profile: %d reachable instructions (%d sync, %d dead, %d loop-invariant)",
		reachableN, syncN, dead, invariant))
	return out
}

// ReportMinimalityVs runs ReportMinimality on a ghost program and, with
// the source (main) program it was sliced from, adds alias-driven
// findings: an in-loop load whose address is invariant across the loop
// and which no source store may alias reloads the same unchanging word
// every iteration — it could be hoisted out of the slice loop. (A load
// of a word some main-thread store MAY write must stay in the loop: the
// reload is how the slice tracks the main thread.) Findings are
// reported under the "minimality-alias" checker, info severity — an
// over-fat slice is slow, not wrong. It takes the address-pattern
// analyses of the ghost (gp) and the source (sp), which an extraction
// already holds (slice.Result.GhostPatterns, MainPatterns).
func ReportMinimalityVs(gp, sp *Patterns) []Finding {
	ghost, source := gp.Prog, sp.Prog
	out := ReportMinimality(gp)

	var stores []int
	for pc := range source.Code {
		op := source.Code[pc].Op
		if (op == isa.OpStore || op == isa.OpAtomicAdd) && sp.G.ReachablePC(pc) {
			stores = append(stores, pc)
		}
	}

	for pc := range ghost.Code {
		in := &ghost.Code[pc]
		if in.Op != isa.OpLoad || in.HasFlag(isa.FlagSync) || !gp.G.ReachablePC(pc) {
			continue
		}
		ap := gp.PatternAt(pc)
		if ap.Loop < 0 || ap.Class != ClassInvariant {
			continue
		}
		aliased := false
		for _, s := range stores {
			if MayAlias(sp, s, gp, pc) {
				aliased = true
				break
			}
		}
		if !aliased {
			out = append(out, finding("minimality-alias", ghost, pc, SevInfo,
				"hoistable load: address is loop-invariant and no main-thread store may alias it"))
		}
	}
	return out
}
