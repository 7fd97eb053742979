// Package slice implements the compiler-driven, automatic ghost-thread
// extraction of the paper's §4.4 ("Compiler Extracted Ghost Threads"):
// given a baseline program whose target loads are annotated (and selected
// by the heuristic), it
//
//  1. picks the extraction region — the outermost loop enclosing the
//     hottest target (the loop a #pragma would name),
//  2. duplicates the region's control-flow structure into a new ghost
//     program, keeping the backward slice of the target addresses plus
//     every branch (and the computation branches depend on), dropping all
//     stores and atomics, and replacing target loads with prefetches,
//  3. appends the synchronization segment after the last target prefetch
//     of the target loop, and
//  4. rewrites the main program: a shared iteration counter updated in
//     the target loop, a counter reset + spawn before the region, and a
//     join after it.
//
// Live-in registers are not rematerialised: the extracted code reuses the
// source program's register numbers and relies on the spawn-time register
// copy. Exactly like the paper's LLVM pass, the result keeps
// "difficult-to-remove, unnecessary control flow" and the irrelevant
// instructions it depends on — compiler ghosts run more instructions than
// manual ones. A branch that reads a target's value stays, reading the
// stale register the prefetch leaves behind (bfs's visited check, hj's
// key compare); only a target whose value a kept data instruction reads
// (a loop-carried pointer-chase hop) is kept as a demand load, so the
// ghost's own address stream stays live (see Result.Rematerialized).
// Live-ins that main recomputes after spawn (per-level loop bounds,
// frontier pointers) still go stale — catching that at runtime is the
// adaptive governor's job (internal/gov).
package slice

import (
	"errors"
	"fmt"

	"ghostthread/internal/analysis"
	"ghostthread/internal/core"
	"ghostthread/internal/isa"
)

// ErrUnsliceable marks a program the extractor cannot turn into a ghost
// thread: no targets, a malformed region, or not enough free registers.
// Callers fall back to other techniques (errors.Is to detect).
var ErrUnsliceable = errors.New("slice: program cannot be sliced")

// ErrUnproved marks an extraction whose ghost failed translation
// validation: the validator could not prove the ghost's prefetch
// addresses replay the main thread's demand stream (errors.Is to
// detect; Options.AllowUnproved bypasses the gate).
var ErrUnproved = errors.New("slice: ghost not proven address-equivalent")

// Options configures Extract.
type Options struct {
	// AllowUnproved skips the translation-validation gate: the extraction
	// succeeds even when the validator cannot prove the ghost's address
	// stream, reporting the verdicts in Result.Verdicts instead of
	// failing. The default (false) rejects UNPROVED slices with
	// ErrUnproved — an unproven ghost can prefetch garbage.
	AllowUnproved bool

	// PerPhase cuts the region loop's backedge out of the ghost: the
	// slice covers ONE region iteration (one BFS level, one join
	// partition) and then halts, relying on the adaptive governor's
	// PC-synchronized respawn (gov.Config.ResyncPC) to re-seed it with
	// fresh live-ins at every region-header crossing. Dropping the
	// region-carried state shrinks the slice: the tail that recomputes
	// next-iteration state goes away, the now-dead guards around it are
	// elided with it, and every region iteration starts from main's
	// current registers instead of spawn-time copies that go stale.
	// A no-op when the region loop has no inner loops
	// (nothing outer to re-seed per-iteration). Only meaningful under a
	// governed run; an unmanaged per-phase ghost dies after one region
	// iteration and never comes back.
	PerPhase bool
}

// Result is the output of an extraction.
type Result struct {
	Main  *isa.Program // transformed main program (counter, spawn, join)
	Ghost *isa.Program // the extracted ghost thread

	RegionLoop int // loop ID of the extraction region in the source program
	TargetLoop int // loop ID of the synchronised target loop
	Kept       int // region instructions kept in the ghost
	Dropped    int // region instructions dropped (stores, dead value code)

	// Rematerialized counts target loads kept as demand loads instead of
	// prefetches because a kept non-branch instruction reads their value
	// (loop-carried pointer-chase hops). A bare prefetch there would leave
	// the destination register stale and derail the ghost's own address
	// stream. A target only branches read is still a prefetch.
	Rematerialized int

	// ResyncPC is the rewritten main's PC of the region loop's header:
	// the one point main revisits (once per outer iteration — a BFS
	// level, a join partition) at which its register state is a valid
	// ghost entry state. The adaptive governor's respawn fires when main
	// dispatches this PC, giving a phase-stale slice fresh live-ins
	// exactly at the phase boundary (gov.Config.ResyncPC).
	ResyncPC int

	// PerPhase reports that the per-phase cut was actually applied (the
	// option was set AND the region had an inner-loop tail to cut at).
	PerPhase bool

	// Verdicts holds the translation-validation results for the extracted
	// pair, one per spawn site (see analysis.VerifyHelperPatterns).
	Verdicts []*analysis.Verdict

	// MainPatterns and GhostPatterns are the analyses of Main and Ghost
	// the safety plan and the validator used, for callers that analyse the
	// pair further (analysis.ReportMinimalityVs). They memoize
	// lazily, so one Result is not safe for concurrent analysis.
	MainPatterns, GhostPatterns *analysis.Patterns
}

// Extract builds the compiler ghost for the given selected targets with
// default options: the translation-validation gate is on, so an
// extraction whose ghost cannot be proven address-equivalent fails with
// ErrUnproved. Targets must be non-empty; the loop of the
// highest-coverage target (the first, per core.SelectTargets ordering)
// is synchronised, and its outermost enclosing loop becomes the region.
func Extract(base *isa.Program, targets []core.Target, params core.SyncParams, ctr core.Counters) (*Result, error) {
	return ExtractWith(base, targets, params, ctr, Options{})
}

// ExtractWith is Extract with explicit Options.
func ExtractWith(base *isa.Program, targets []core.Target, params core.SyncParams, ctr core.Counters, opts Options) (*Result, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: no targets selected for %q", ErrUnsliceable, base.Name)
	}
	targetLoop := targets[0].LoopID
	if targetLoop < 0 || targetLoop >= len(base.Loops) {
		return nil, fmt.Errorf("%w: target loop %d out of range in %q", ErrUnsliceable, targetLoop, base.Name)
	}
	region := targetLoop
	for base.Loops[region].Parent >= 0 {
		region = base.Loops[region].Parent
	}
	head, end := base.Loops[region].Head, base.Loops[region].End

	// Target load PCs inside the region (only those get prefetched).
	targetPCs := map[int]bool{}
	syncAfter := -1
	for _, t := range targets {
		if t.LoadPC >= head && t.LoadPC < end {
			targetPCs[t.LoadPC] = true
			if t.LoopID == targetLoop && t.LoadPC > syncAfter {
				syncAfter = t.LoadPC
			}
		}
	}
	if syncAfter < 0 {
		return nil, fmt.Errorf("%w: no target loads inside region of %q", ErrUnsliceable, base.Name)
	}

	// Per-phase extraction: cut the ghost off at the region tail — the
	// code after the last inner loop that recomputes next-iteration state
	// (frontier swap, level advance) — so the slice covers exactly one
	// region iteration and halts. With no next iteration, that state (and
	// everything feeding it) is dead. Degenerates to the classic whole-
	// region slice when the region has no inner loops.
	cut := end
	if opts.PerPhase {
		tail := head
		for _, l := range base.Loops {
			if l.Parent == region && l.End > tail {
				tail = l.End
			}
		}
		if tail > head {
			cut = tail
		}
	}

	res := &Result{RegionLoop: region, TargetLoop: targetLoop, PerPhase: cut < end}
	ghost, err := buildGhost(base, head, end, cut, targetPCs, syncAfter, params, ctr, res)
	if err != nil {
		return nil, err
	}
	// Static safety gate: a ghost that could write application state (or
	// lost its sync segment) is rejected here, before it can ever run.
	// The ghost's analysis is built once, for this gate and validation.
	res.GhostPatterns = analysis.AnalyzeAddrPatterns(ghost)
	if _, err := core.PlanPatterns([]*analysis.Patterns{res.GhostPatterns}, ctr); err != nil {
		return nil, fmt.Errorf("slice: extracted ghost for %q rejected: %w", base.Name, err)
	}
	main, err := rewriteMain(base, head, end, targetLoop, ctr)
	if err != nil {
		return nil, err
	}
	res.Main = main
	res.Ghost = ghost
	res.ResyncPC = main.Loops[region].Head

	// Translation validation: prove the ghost's prefetch addresses replay
	// the main thread's demand stream (analysis/transval.go). UNPROVED
	// slices are rejected unless the caller opts out — they still carry
	// the verdicts for reporting.
	res.MainPatterns = analysis.AnalyzeAddrPatterns(main)
	res.Verdicts = analysis.VerifyHelperPatterns(res.MainPatterns, res.GhostPatterns, 0)
	if !opts.AllowUnproved {
		for _, v := range res.Verdicts {
			if v.Status != analysis.Unproved {
				continue
			}
			reason := v.Err
			for _, tv := range v.Targets {
				if tv.Status == analysis.Unproved {
					reason = tv.Reason
					break
				}
			}
			return nil, fmt.Errorf("%w: %q spawn@%d: %s", ErrUnproved, ghost.Name, v.SpawnPC, reason)
		}
	}
	return res, nil
}

// buildGhost duplicates the region [head, end) into a ghost program.
// cut == end slices the whole region; cut < end is the per-phase mode
// (instructions in [cut, end) — the region tail and backedge — are
// excluded, so the ghost falls through to its halt after one region
// iteration).
func buildGhost(base *isa.Program, head, end, cut int, targetPCs map[int]bool, syncAfter int,
	params core.SyncParams, ctr core.Counters, res *Result) (*isa.Program, error) {

	include := computeSlice(base, head, end, cut, targetPCs)
	remat := dataConsumed(analysis.AnalyzeAddrPatterns(base).S, head, include, targetPCs)

	maxReg := maxRegUsed(base)
	syncRegs := core.SyncRegs
	if params.Dynamic() {
		syncRegs = core.DynamicSyncRegs
	}
	if maxReg+syncRegs+4 > isa.NumRegs {
		return nil, fmt.Errorf("%w: %q uses %d registers; no space for sync state", ErrUnsliceable, base.Name, maxReg)
	}

	b := isa.NewBuilder(base.Name + "-compiler-ghost")
	b.Func("ghost")
	b.ReserveRegs(maxReg)
	st := core.NewSync(b, params, ctr)

	// One label per distinct branch target; exits share a label bound at
	// the trailing halt.
	labels := map[int]isa.Label{}
	exit := b.NewLabel()
	labelFor := func(t int) isa.Label {
		if t < head || t >= end {
			return exit
		}
		if cut < end && t == head {
			// Per-phase: a branch back to the region header would re-enter
			// the region with its (dropped) tail state stale — the slice
			// ends here; the governor re-seeds it at the next crossing.
			return exit
		}
		l, ok := labels[t]
		if !ok {
			l = b.NewLabel()
			labels[t] = l
		}
		return l
	}
	// Pre-create labels so binding can happen in order.
	for pc := head; pc < end; pc++ {
		in := &base.Code[pc]
		if in.Op.IsBranch() {
			labelFor(int(in.Target))
		}
	}

	for pc := head; pc < end; pc++ {
		if l, ok := labels[pc]; ok {
			b.Bind(l)
		}
		in := base.Code[pc]
		switch {
		case !include[pc-head]:
			res.Dropped++
			continue
		case targetPCs[pc]:
			if remat[pc] {
				// The target's value feeds kept data code downstream (a
				// pointer-chase hop): a bare prefetch would leave the
				// register stale and derail the slice's own address stream.
				// Re-materialize it as a demand load — it warms the shared
				// cache exactly like the prefetch would, and keeps the
				// loop-carried chain live (this is what hand-built chase
				// ghosts do).
				b.Load(in.Dst, in.Src1, in.Imm)
				res.Rematerialized++
			} else {
				b.Prefetch(in.Src1, in.Imm)
			}
			res.Kept++
			if pc == syncAfter {
				core.EmitSync(b, st, nil)
			}
		case in.Op.IsBranch():
			b.BranchOp(in.Op, in.Src1, in.Src2, labelFor(int(in.Target)))
			res.Kept++
		default:
			in.Flags = 0
			b.EmitRaw(in)
			res.Kept++
		}
	}
	b.Bind(exit)
	b.Halt()
	return b.Build()
}

// dataConsumed returns the target loads that must stay demand loads:
// those whose value a kept non-branch instruction reads (a pointer-chase
// hop's next address). A target that only branches read becomes a
// prefetch, and the branch reads the stale register — the "unremovable
// control flow" the paper's pass leaves in place (§6.1). The readers come
// off the base program's def-use chains, which follow phis, so a kept
// instruction that reads only another definition of the same register
// does not count.
func dataConsumed(s *analysis.SSA, head int, include []bool, targetPCs map[int]bool) map[int]bool {
	code := s.G.Prog.Code
	remat := map[int]bool{}
	for pc := range targetPCs {
		if !include[pc-head] {
			continue
		}
		for _, u := range s.Uses(pc) {
			if u >= head && u-head < len(include) && include[u-head] && !code[u].Op.IsBranch() {
				remat[pc] = true
				break
			}
		}
	}
	return remat
}

// computeSlice returns, per region offset, whether the instruction is
// kept: all control flow, the backward closure of branch operands and
// target addresses; stores and atomics are always dropped (the ghost must
// not modify application state). Forward branches guarding nothing that
// survived (cc's guard around a label store and an AtomicAdd, a
// frontier-count increment whose sum only fed a dropped tail) are then
// elided and the closure re-derived: such a branch is a no-op in the
// ghost, and eliding it frees its operands' producers — often a target
// load, which can then become a true prefetch.
//
// cut < end selects the per-phase mode: instructions in [cut, end) are
// never kept.
func computeSlice(base *isa.Program, head, end, cut int, targetPCs map[int]bool) []bool {
	n := end - head
	include := make([]bool, n)
	elided := make([]bool, n)
	needed := map[isa.Reg]bool{}

	markSrcs := func(in *isa.Instr) {
		ns := in.Op.NumSrcs()
		if ns >= 1 {
			needed[in.Src1] = true
		}
		if ns >= 2 {
			needed[in.Src2] = true
		}
	}

	derive := func() {
		// Iterate to a fixed point: needs flow backwards around loops.
		for changed := true; changed; {
			changed = false
			for pc := end - 1; pc >= head; pc-- {
				i := pc - head
				if include[i] || elided[i] || pc >= cut {
					continue
				}
				in := &base.Code[pc]
				keep := false
				switch {
				case in.Op == isa.OpStore || in.Op == isa.OpAtomicAdd:
					keep = false // never: ghost threads are read-only
				case in.Op.IsBranch() || in.Op == isa.OpHalt:
					keep = true
				case targetPCs[pc]:
					keep = true
				case in.Op == isa.OpSpawn || in.Op == isa.OpJoin || in.Op == isa.OpSerialize:
					keep = false
				case in.Op.HasDst() && needed[in.Dst]:
					keep = true
				}
				if keep {
					include[i] = true
					changed = true
					if targetPCs[pc] {
						needed[in.Src1] = true // only the address matters
					} else {
						markSrcs(in)
					}
				}
			}
		}
	}

	derive()
	for {
		// Elide kept forward branches whose span holds no surviving
		// instruction: with the guarded code dead, the guard is dead too,
		// and so are its operands' producers. Each elision can expose
		// more (a branch over a now-empty span), so re-derive from
		// scratch until no branch falls.
		any := false
		for pc := head; pc < cut; pc++ {
			i := pc - head
			if !include[i] || !base.Code[pc].Op.IsBranch() {
				continue
			}
			t := int(base.Code[pc].Target)
			if t <= pc {
				continue // backward branch: a loop, never dead
			}
			if t > end {
				t = end // branch to exit == fallthrough past the halt
			}
			empty := true
			for q := pc + 1; q < t; q++ {
				if include[q-head] {
					empty = false
					break
				}
			}
			if empty {
				elided[i] = true
				include[i] = false
				any = true
			}
		}
		if !any {
			break
		}
		clear(include)
		clear(needed)
		derive()
	}
	return include
}

// rewriteMain inserts the counter prologue, the per-iteration counter
// update in the target loop, and the spawn/join pair around the region.
func rewriteMain(base *isa.Program, head, end, targetLoop int, ctr core.Counters) (*isa.Program, error) {
	maxReg := maxRegUsed(base)
	if maxReg+4 > isa.NumRegs {
		return nil, fmt.Errorf("%w: %q uses %d registers; no space for counter state", ErrUnsliceable, base.Name, maxReg)
	}
	ctrAddr := isa.Reg(maxReg)
	oneR := isa.Reg(maxReg + 1)
	zeroR := isa.Reg(maxReg + 2)
	dstR := isa.Reg(maxReg + 3)

	p := clone(base)
	p.Name = base.Name + "-compiler-main"

	backedge := p.Loops[targetLoop].Backedge
	if backedge < 0 {
		return nil, fmt.Errorf("%w: target loop %d of %q has no backedge", ErrUnsliceable, targetLoop, base.Name)
	}

	// Apply insertions from the highest position down so indices stay
	// valid. The join uses exclusive branch shifting so region-exit
	// branches land on it; the counter update inherits the target loop's
	// annotation so profiling attributes it correctly.
	insertAt(p, end, true, false, isa.Instr{Op: isa.OpJoin})
	insertAt(p, backedge, false, true,
		isa.Instr{Op: isa.OpAtomicAdd, Dst: dstR, Src1: ctrAddr, Src2: oneR, Flags: isa.FlagSync})
	insertAt(p, head, false, false,
		isa.Instr{Op: isa.OpStore, Src1: ctrAddr, Src2: zeroR, Flags: isa.FlagSync},
		isa.Instr{Op: isa.OpSpawn, Imm: 0},
	)
	insertAt(p, 0, false, false,
		isa.Instr{Op: isa.OpConst, Dst: ctrAddr, Imm: ctr.MainAddr},
		isa.Instr{Op: isa.OpConst, Dst: oneR, Imm: 1},
		isa.Instr{Op: isa.OpConst, Dst: zeroR, Imm: 0},
	)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("slice: rewritten main invalid: %w", err)
	}
	return p, nil
}

// clone deep-copies a program.
func clone(p *isa.Program) *isa.Program {
	q := &isa.Program{Name: p.Name}
	q.Code = append([]isa.Instr(nil), p.Code...)
	q.Loops = append([]isa.Loop(nil), p.Loops...)
	return q
}

// insertAt splices instrs at position at, fixing branch targets and loop
// extents. With exclusiveBranch=true, branches targeting exactly `at` are
// NOT shifted (they land on the inserted code — used for the join so loop
// exits deactivate the ghost). With inheritLoop=true the inserted
// instructions adopt the loop annotation of the instruction currently at
// `at` (used for updates inserted inside a loop).
func insertAt(p *isa.Program, at int, exclusiveBranch, inheritLoop bool, instrs ...isa.Instr) {
	n := int32(len(instrs))
	shift := func(t int32) int32 {
		if t > int32(at) || (!exclusiveBranch && t == int32(at)) {
			return t + n
		}
		return t
	}
	for i := range p.Code {
		if p.Code[i].Op.IsBranch() {
			p.Code[i].Target = shift(p.Code[i].Target)
		}
	}
	loopAt := int32(-1)
	if inheritLoop && at >= 0 && at < len(p.Code) {
		loopAt = p.Code[at].Loop
	}
	for i := range instrs {
		instrs[i].Loop = loopAt
	}
	for li := range p.Loops {
		l := &p.Loops[li]
		if l.Head >= at {
			l.Head += int(n)
		}
		if l.End > at {
			l.End += int(n)
		}
		if l.Backedge >= at {
			l.Backedge += int(n)
		}
	}
	p.Code = append(p.Code[:at], append(append([]isa.Instr(nil), instrs...), p.Code[at:]...)...)
}

// maxRegUsed returns one past the highest register index the program
// touches.
func maxRegUsed(p *isa.Program) int {
	maxR := 0
	for i := range p.Code {
		in := &p.Code[i]
		if in.Op.HasDst() && int(in.Dst) >= maxR {
			maxR = int(in.Dst) + 1
		}
		ns := in.Op.NumSrcs()
		if ns >= 1 && int(in.Src1) >= maxR {
			maxR = int(in.Src1) + 1
		}
		if ns >= 2 && int(in.Src2) >= maxR {
			maxR = int(in.Src2) + 1
		}
	}
	return maxR
}
