package workloads

import (
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// newMultiBFS builds multi-core breadth-first search: level-synchronous
// over a shared queue with atomic claims and an atomic tail; every level
// ends with a barrier after which the master publishes the next level's
// queue bounds. depth[] is deterministic (level-synchronous claims);
// parent[] may vary between valid choices, so the check validates depth
// exactly and parent by adjacency.
func newMultiBFS(graphName string, cores int, tech MultiTech, opts Options) *MultiInstance {
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 8, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	depthA := h.Alloc(n)
	parentA := h.Alloc(n)
	claimA := h.Alloc(n)
	queueA := h.Alloc(2 * n)
	qTailA := h.Alloc(1)
	shLoA := h.Alloc(1)
	shHiA := h.Alloc(1)
	shDepthA := h.Alloc(1)
	bar := barrierState{arriveA: h.Alloc(1), phaseA: h.Alloc(1), cores: int64(cores)}
	ctrBase := h.Alloc(int64(2 * cores))

	source := maxDegreeNode(g)
	mm.Fill(depthA, n, -1)
	mm.StoreWord(depthA+source, 0)
	mm.StoreWord(parentA+source, source)
	mm.StoreWord(claimA+source, 1)
	mm.StoreWord(queueA, source)
	mm.StoreWord(qTailA, 1)
	mm.StoreWord(shLoA, 0)
	mm.StoreWord(shHiA, 1)

	_, wantDepth := bfsReference(g, source)

	name := fmt.Sprintf("bfs.%s@%d-%s", graphName, cores, tech)

	// emitLevelChunk scans queue[lo, hi) (register bounds), claiming
	// unvisited neighbours at depth du+1. kind camelSWPF adds the
	// unguarded lookahead prefetch; camelGhostMain publishes the per-edge
	// iteration counter at ctrA.
	emitLevelChunk := func(b *isa.Builder, kind camelKind, lo, hi, du isa.Reg,
		depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one isa.Reg,
		tmp isa.Reg, ctrA isa.Reg) {
		du1 := b.Reg()
		b.AddI(du1, du, 1)
		b.CountedLoop("bfs_mc_level", lo, hi, func(qi isa.Reg) {
			ua := b.Reg()
			b.Add(ua, queueR, qi)
			u := b.Reg()
			b.Load(u, ua, 0)
			oa := b.Reg()
			b.Add(oa, offsR, u)
			s := b.Reg()
			b.Load(s, oa, 0)
			e := b.Reg()
			b.Load(e, oa, 1)
			b.CountedLoop("bfs_mc_inner", s, e, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				if kind == camelSWPF {
					pv := b.Reg()
					b.Load(pv, na, SWPFDistance)
					ppa := b.Reg()
					b.Add(ppa, depthR, pv)
					b.Prefetch(ppa, 0)
				}
				v := b.Reg()
				b.Load(v, na, 0)
				dva := b.Reg()
				b.Add(dva, depthR, v)
				dv := b.Reg()
				b.Load(dv, dva, 0)
				b.MarkTarget()
				seen := b.NewLabel()
				b.BGE(dv, zero, seen)
				ca := b.Reg()
				b.Add(ca, claimR, v)
				cl := b.Reg()
				b.AtomicAdd(cl, ca, 0, one)
				notFirst := b.NewLabel()
				b.BNE(cl, one, notFirst)
				b.Store(dva, 0, du1)
				pa := b.Reg()
				b.Add(pa, parentR, v)
				b.Store(pa, 0, u)
				ti := b.Reg()
				b.AtomicAdd(ti, qTailR, 0, one)
				b.AddI(ti, ti, -1)
				qa := b.Reg()
				b.Add(qa, queueR, ti)
				b.Store(qa, 0, v)
				b.Bind(notFirst)
				b.Bind(seen)
				if kind == camelGhostMain {
					core.EmitUpdate(b, ctrA, one, tmp)
				}
			})
		})
	}

	buildGhostChunk := func(c int) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("%s-ghost-c%d", name, c))
		b.Func("TDStep")
		st := core.NewSync(b, opts.Sync, coreCounters(ctrBase, c))
		depthR := b.Imm(depthA)
		queueR := b.Imm(queueA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		lo := b.Reg()
		hi := b.Reg()
		shL := b.Imm(shLoA)
		shH := b.Imm(shHiA)
		b.Load(lo, shL, 0)
		b.Load(hi, shH, 0)
		myLo, myHi := emitCoreChunk(b, lo, hi, c, func() isa.Reg { return b.Imm(int64(cores)) })
		emitBFSGhostScan(b, st, myLo, myHi, zero, queueR, offsR, neighR, depthR)
		b.Halt()
		return b.MustBuild()
	}

	buildWorkerChunk := func(c int) *isa.Program {
		// The SMT worker takes the upper half of this core's chunk,
		// reading the level's bounds and depth from the shared words.
		b := isa.NewBuilder(fmt.Sprintf("%s-worker-c%d", name, c))
		b.Func("TDStep")
		depthR := b.Imm(depthA)
		parentR := b.Imm(parentA)
		claimR := b.Imm(claimA)
		queueR := b.Imm(queueA)
		qTailR := b.Imm(qTailA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		one := b.Imm(1)
		tmp := b.Reg()
		lo := b.Reg()
		hi := b.Reg()
		du := b.Reg()
		shL := b.Imm(shLoA)
		shH := b.Imm(shHiA)
		shD := b.Imm(shDepthA)
		b.Load(lo, shL, 0)
		b.Load(hi, shH, 0)
		b.Load(du, shD, 0)
		// This core's chunk, upper half.
		myLo, myHi := emitCoreChunk(b, lo, hi, c, func() isa.Reg { return b.Imm(int64(cores)) })
		mid := b.Reg()
		b.Add(mid, myLo, myHi)
		b.ShrI(mid, mid, 1)
		emitLevelChunk(b, camelBase, mid, myHi, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, 0)
		b.Halt()
		return b.MustBuild()
	}

	inst := &MultiInstance{Name: name, Cores: cores, Mem: mm}
	for c := 0; c < cores; c++ {
		b := isa.NewBuilder(fmt.Sprintf("%s-c%d", name, c))
		b.Func("TDStep")
		depthR := b.Imm(depthA)
		parentR := b.Imm(parentA)
		claimR := b.Imm(claimA)
		queueR := b.Imm(queueA)
		qTailR := b.Imm(qTailA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		one := b.Imm(1)
		tmp := b.Reg()
		br := newBarrierRegs(b, bar, one)
		shL := b.Imm(shLoA)
		shH := b.Imm(shHiA)
		var shD isa.Reg // the level's depth, which only the SMT worker reads
		if tech == MultiSMT {
			shD = b.Imm(shDepthA)
		}
		var ctrA isa.Reg
		if tech == MultiGhost {
			ctrA = b.Imm(coreCounters(ctrBase, c).MainAddr)
		}
		du := b.Imm(0)
		coresR := b.Imm(int64(cores))

		levels := b.LoopBegin("bfs_mc_levels")
		top := b.HereLabel()
		lo := b.Reg()
		hi := b.Reg()
		b.Load(lo, shL, 0)
		b.Load(hi, shH, 0)
		done := b.NewLabel()
		b.BGE(lo, hi, done)
		myLo, myHi := emitCoreChunk(b, lo, hi, c, func() isa.Reg { return coresR })

		switch tech {
		case MultiSMT:
			b.Store(shD, 0, du)
			mid := b.Reg()
			b.Add(mid, myLo, myHi)
			b.ShrI(mid, mid, 1)
			b.Spawn(0)
			emitLevelChunk(b, tech.kind(), myLo, mid, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, 0)
			b.JoinWait()
		case MultiGhost:
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitLevelChunk(b, tech.kind(), myLo, myHi, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, ctrA)
			b.Join()
		default:
			emitLevelChunk(b, tech.kind(), myLo, myHi, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, 0)
		}
		emitBarrier(b, bar, br)
		if c == 0 {
			// Master publishes the next level's bounds.
			nt := b.Reg()
			b.Load(nt, qTailR, 0)
			b.Store(shL, 0, hi)
			b.Store(shH, 0, nt)
		}
		emitBarrier(b, bar, br)
		b.AddI(du, du, 1)
		be := b.Jmp(top)
		b.SetBackedge(levels, be)
		b.LoopEnd(levels)
		b.Bind(done)

		if c == 0 {
			b.Func("checksum")
			sum := b.Imm(0)
			nR := b.Imm(n)
			b.CountedLoop("bfs_mc_checksum", zero, nR, func(v isa.Reg) {
				pa := b.Reg()
				b.Add(pa, depthR, v)
				pv := b.Reg()
				b.Load(pv, pa, 0)
				b.Add(sum, sum, pv)
			})
			outR := b.Imm(d.out)
			b.Store(outR, 0, sum)
		}
		b.Halt()
		var helpers []*isa.Program
		switch tech {
		case MultiSMT:
			helpers = []*isa.Program{buildWorkerChunk(c)}
		case MultiGhost:
			helpers = []*isa.Program{buildGhostChunk(c)}
		}
		inst.Per = append(inst.Per, CorePrograms{Main: b.MustBuild(), Helpers: helpers})
	}
	inst.Check = combineChecks(
		checkWord(d.out, wordSum(wantDepth), name+" depth checksum"),
		checkWords(depthA, wantDepth, name+" depth"),
		checkParentEdges(g, parentA, source, wantDepth, name),
	)
	return inst
}

// emitCoreChunk emits core c's contiguous chunk [myLo, myHi) of the
// level's queue slots [lo, hi): slot lo + (hi-lo)*c/cores onwards. cores
// yields the divisor register at each of the two divisions: the main
// program passes the register its prologue loads once, while the helpers
// materialise the constant at each division.
func emitCoreChunk(b *isa.Builder, lo, hi isa.Reg, c int, cores func() isa.Reg) (myLo, myHi isa.Reg) {
	chunk := b.Reg()
	b.Sub(chunk, hi, lo)
	myLo = b.Reg()
	b.MulI(myLo, chunk, int64(c))
	b.Div(myLo, myLo, cores())
	b.Add(myLo, myLo, lo)
	myHi = b.Reg()
	b.MulI(myHi, chunk, int64(c+1))
	b.Div(myHi, myHi, cores())
	b.Add(myHi, myHi, lo)
	return myLo, myHi
}
