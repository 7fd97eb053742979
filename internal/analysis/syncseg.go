package analysis

import "ghostthread/internal/isa"

// CheckSyncSegment lints the serialize-based synchronization segment of a
// ghost program (the paper's figure 4(d) state machine, emitted by
// core.EmitSync). It does not demand the exact default hyper-parameters —
// workloads override TooFar/Close — but it does demand the *shape* that
// makes the mechanism correct:
//
//  1. a ghost-local iteration counter incremented inside the ghost loop;
//  2. a power-of-two SyncFreq gate on that counter, so the shared main
//     counter is read once every SyncFreq iterations rather than every
//     iteration;
//  3. a load of the main thread's counter word inside the loop;
//  4. every serialize guarded by a flag test (proved by abstract
//     interpretation: the tested register is pinned nonzero at the
//     serialize) and, when it sits in a throttle loop, a bounded backoff
//     exit so a stalled main thread cannot wedge the ghost forever;
//  5. the inferred thresholds ordered Close < TooFar.
//
// pt is the ghost's analysis.
func CheckSyncSegment(pt *Patterns, ctr CounterAddrs) []Finding {
	p, g, idom, loops, v := pt.Prog, pt.G, pt.Idom, pt.F, pt.Vals

	sync := func(pc int) bool { return g.ReachablePC(pc) && p.Code[pc].HasFlag(isa.FlagSync) }
	anySync := false
	for pc := range p.Code {
		if sync(pc) {
			anySync = true
			break
		}
	}
	var out []Finding
	if !anySync {
		out = append(out, finding("sync-segment", p, 0, SevWarn,
			"ghost has no synchronization segment; it can run arbitrarily far ahead of the main thread"))
		return out
	}

	// 1. Local counter increment inside a loop.
	var counterRegs RegSet
	haveIncr := false
	for pc := range p.Code {
		in := &p.Code[pc]
		if sync(pc) && in.Op == isa.OpAddI && in.Dst == in.Src1 && in.Imm == 1 &&
			loops.Depth(g.BlockOf[pc]) > 0 {
			counterRegs.Add(in.Dst)
			haveIncr = true
		}
	}
	if !haveIncr {
		out = append(out, finding("sync-segment", p, 0, SevError,
			"sync segment never increments a local iteration counter inside the ghost loop"))
	}

	// 2. SyncFreq mask gate: (counter & (2^k - 1)) feeding a BEQ/BNE.
	syncFreq := int64(-1)
	for pc := range p.Code {
		in := &p.Code[pc]
		if !sync(pc) || in.Op != isa.OpAndI || in.Imm < 1 || in.Imm&(in.Imm+1) != 0 {
			continue
		}
		if haveIncr && !counterRegs.Has(in.Src1) {
			continue
		}
		for _, use := range pt.S.Uses(pc) {
			if op := p.Code[use].Op; op == isa.OpBEQ || op == isa.OpBNE {
				syncFreq = in.Imm + 1
			}
		}
	}
	if syncFreq < 0 {
		out = append(out, finding("sync-segment", p, 0, SevError,
			"sync segment never gates the counter comparison on local %% SyncFreq (masked branch not found)"))
	}

	// 3. Main-counter load inside the loop.
	haveMainLoad := false
	for pc := range p.Code {
		in := &p.Code[pc]
		if sync(pc) && in.Op == isa.OpLoad && loops.Depth(g.BlockOf[pc]) > 0 {
			if addr := v.MemAddr(pc); addr.IsConst() && addr.Lo == ctr.Main {
				haveMainLoad = true
			}
		}
	}
	if !haveMainLoad {
		out = append(out, finding("sync-segment", p, 0, SevError,
			"sync segment never loads the main thread's counter word (%d)", ctr.Main))
	}

	// 4. Serialize guard + bounded throttle.
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op != isa.OpSerialize || !g.ReachablePC(pc) {
			continue
		}
		if !in.HasFlag(isa.FlagSync) {
			out = append(out, finding("sync-segment", p, pc, SevWarn,
				"serialize outside any synchronization segment"))
			continue
		}
		sb := g.BlockOf[pc]
		if !v.ReachedPC(pc) {
			out = append(out, finding("sync-segment", p, pc, SevWarn,
				"serialize is unreachable: the serialize flag is provably never set"))
			continue
		}
		guarded := false
		for bpc := range p.Code {
			bi := &p.Code[bpc]
			if !sync(bpc) || !bi.Op.IsCondBranch() {
				continue
			}
			// The branch must sit in a strictly dominating block: a
			// terminator of the serialize's own block executes after the
			// serialize and cannot guard it.
			if bb := g.BlockOf[bpc]; bb == sb || !Dominates(idom, bb, sb) {
				continue
			}
			for _, r := range []isa.Reg{bi.Src1, bi.Src2} {
				if iv := v.RegAt(pc, r); !iv.Contains(0) {
					guarded = true
				}
			}
		}
		if !guarded {
			out = append(out, finding("sync-segment", p, pc, SevError,
				"serialize is not guarded by a flag test (no dominating branch pins a tested register nonzero here)"))
		}
		if li := loops.InnermostLoop(sb); li >= 0 && !boundedLoopExit(pt, li) {
			out = append(out, finding("sync-segment", p, pc, SevError,
				"serialize throttle loop has no bounded backoff exit; a stalled main thread would wedge the ghost"))
		}
	}

	// 5. Threshold ordering. The thresholds appear as "tmp = mainR + K"
	// additions feeding comparisons; the one whose comparison guards the
	// flag-set (const 1 into a flag register) is TooFar, and every other
	// K must stay below it.
	var flagRegs RegSet
	for pc := range p.Code {
		in := &p.Code[pc]
		if sync(pc) && in.Op == isa.OpConst && in.Imm == 1 {
			flagRegs.Add(in.Dst)
		}
	}
	tooFar := int64(-1)
	var others []int64
	var otherPCs []int
	for pc := range p.Code {
		in := &p.Code[pc]
		if !sync(pc) || in.Op != isa.OpAddI || in.Dst == in.Src1 || in.Imm <= 0 {
			continue
		}
		feedsBranch := -1
		for _, use := range pt.S.Uses(pc) {
			if p.Code[use].Op.IsCondBranch() {
				feedsBranch = use
			}
		}
		if feedsBranch < 0 {
			continue
		}
		// Does either successor of the comparison set a flag register?
		setsFlag := false
		for _, s := range g.Blocks[g.BlockOf[feedsBranch]].Succs {
			for spc := g.Blocks[s].Start; spc < g.Blocks[s].End; spc++ {
				si := &p.Code[spc]
				if si.Op == isa.OpConst && si.Imm == 1 && flagRegs.Has(si.Dst) {
					setsFlag = true
				}
			}
		}
		if setsFlag {
			tooFar = in.Imm
		} else {
			others = append(others, in.Imm)
			otherPCs = append(otherPCs, pc)
		}
	}
	if tooFar >= 0 {
		for i, k := range others {
			if k >= tooFar {
				out = append(out, finding("sync-segment", p, otherPCs[i], SevError,
					"sync thresholds inverted: Close-style offset %d is not below TooFar %d", k, tooFar))
			}
		}
	}
	return out
}

// boundedLoopExit reports whether loop li has a conditional branch that
// can leave the loop and tests a register that marches: a reaching def
// inside the loop is a self-increment by a nonzero constant (the backoff
// counter's AddI -1, or an induction variable). A throttle loop whose
// only exits compare loop-invariant values never terminates on its own.
func boundedLoopExit(pt *Patterns, li int) bool {
	g := pt.G
	l := &pt.F.Loops[li]
	for b := range l.Blocks {
		tpc := g.Terminator(b)
		in := &g.Prog.Code[tpc]
		if !in.Op.IsCondBranch() {
			continue
		}
		canLeave := false
		for _, s := range g.Blocks[b].Succs {
			if !l.Blocks[s] {
				canLeave = true
			}
		}
		if !canLeave {
			continue
		}
		for _, r := range []isa.Reg{in.Src1, in.Src2} {
			for _, d := range pt.S.DefsOf(tpc, r) {
				di := &g.Prog.Code[d]
				if l.Blocks[g.BlockOf[d]] && di.Op == isa.OpAddI && di.Dst == di.Src1 && di.Imm != 0 {
					return true
				}
			}
		}
	}
	return false
}
