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

	source := int64(0)
	for v := int64(1); v < n; v++ {
		if g.Degree(v) > g.Degree(source) {
			source = v
		}
	}
	mm.Fill(depthA, n, -1)
	mm.StoreWord(depthA+source, 0)
	mm.StoreWord(parentA+source, source)
	mm.StoreWord(claimA+source, 1)
	mm.StoreWord(queueA, source)
	mm.StoreWord(qTailA, 1)
	mm.StoreWord(shLoA, 0)
	mm.StoreWord(shHiA, 1)

	// Reference depths (deterministic) via Go BFS.
	wantDepth := make([]int64, n)
	for v := range wantDepth {
		wantDepth[v] = -1
	}
	wantDepth[source] = 0
	q := []int64{source}
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		for _, v := range g.Neighbors(u) {
			if wantDepth[v] < 0 {
				wantDepth[v] = wantDepth[u] + 1
				q = append(q, v)
			}
		}
	}

	name := fmt.Sprintf("bfs.%s@%d-%s", graphName, cores, tech)
	dPf := SWPFDistance

	// emitLevelChunk scans queue[lo, hi) (register bounds), claiming
	// unvisited neighbours at depth du+1.
	emitLevelChunk := func(b *isa.Builder, lo, hi, du isa.Reg,
		depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one isa.Reg,
		tmp isa.Reg, withPrefetch bool, ctrA isa.Reg) {
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
				if withPrefetch {
					pv := b.Reg()
					b.Load(pv, na, dPf)
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
				if ctrA != 0 {
					core.EmitUpdate(b, ctrA, one, tmp)
				}
			})
		})
	}

	buildGhostChunk := func(c int) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("%s-ghost-c%d", name, c))
		b.Func("TDStep")
		st := core.NewSync(b, opts.Sync, core.Counters{
			MainAddr: ctrBase + int64(2*c), GhostAddr: ctrBase + int64(2*c+1)})
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
		// This core's chunk of the level.
		chunk := b.Reg()
		b.Sub(chunk, hi, lo)
		myLo := b.Reg()
		b.MulI(myLo, chunk, int64(c))
		b.Div(myLo, myLo, b.Imm(int64(cores)))
		b.Add(myLo, myLo, lo)
		myHi := b.Reg()
		b.MulI(myHi, chunk, int64(c+1))
		b.Div(myHi, myHi, b.Imm(int64(cores)))
		b.Add(myHi, myHi, lo)
		qLast := b.Reg()
		b.AddI(qLast, myHi, -1)
		b.Max(qLast, qLast, zero)
		b.CountedLoop("bfs_mc_level_g", myLo, myHi, func(qi isa.Reg) {
			ua := b.Reg()
			b.Add(ua, queueR, qi)
			u := b.Reg()
			b.Load(u, ua, 0)
			fq := b.Reg()
			b.AddI(fq, qi, 8)
			b.Min(fq, fq, qLast)
			fa := b.Reg()
			b.Add(fa, queueR, fq)
			fu := b.Reg()
			b.Load(fu, fa, 0)
			foa := b.Reg()
			b.Add(foa, offsR, fu)
			b.Prefetch(foa, 0)
			oa := b.Reg()
			b.Add(oa, offsR, u)
			s := b.Reg()
			b.Load(s, oa, 0)
			e := b.Reg()
			b.Load(e, oa, 1)
			b.CountedLoop("bfs_mc_inner_g", s, e, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				v := b.Reg()
				b.Load(v, na, 0)
				pa := b.Reg()
				b.Add(pa, depthR, v)
				b.Prefetch(pa, 0)
				core.EmitSync(b, st, func() {
					b.AddI(ei, ei, st.Params.SkipStep)
					core.AdvanceLocal(b, st, st.Params.SkipStep)
				})
			})
		})
		b.Halt()
		return b.MustBuild()
	}

	buildWorkerChunk := func(c int) *isa.Program {
		// The SMT worker takes the upper half of this core's chunk; its
		// bounds arrive via the spawn-time register copy (the main thread
		// leaves them in the registers workerLo/workerHi below).
		b := isa.NewBuilder(fmt.Sprintf("%s-worker-c%d", name, c))
		b.Func("TDStep")
		// Register layout must match the main program's prologue: the
		// worker reads its bounds from the shared words instead.
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
		chunk := b.Reg()
		b.Sub(chunk, hi, lo)
		myLo := b.Reg()
		b.MulI(myLo, chunk, int64(c))
		b.Div(myLo, myLo, b.Imm(int64(cores)))
		b.Add(myLo, myLo, lo)
		myHi := b.Reg()
		b.MulI(myHi, chunk, int64(c+1))
		b.Div(myHi, myHi, b.Imm(int64(cores)))
		b.Add(myHi, myHi, lo)
		mid := b.Reg()
		b.Add(mid, myLo, myHi)
		b.ShrI(mid, mid, 1)
		emitLevelChunk(b, mid, myHi, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, false, 0)
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
		shD := b.Imm(shDepthA)
		var ctrA isa.Reg
		if tech == MultiGhost {
			ctrA = b.Imm(ctrBase + int64(2*c))
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
		// This core's contiguous chunk of the level.
		chunk := b.Reg()
		b.Sub(chunk, hi, lo)
		myLo := b.Reg()
		b.MulI(myLo, chunk, int64(c))
		b.Div(myLo, myLo, coresR)
		b.Add(myLo, myLo, lo)
		myHi := b.Reg()
		b.MulI(myHi, chunk, int64(c+1))
		b.Div(myHi, myHi, coresR)
		b.Add(myHi, myHi, lo)

		switch tech {
		case MultiSMT:
			b.Store(shD, 0, du)
			mid := b.Reg()
			b.Add(mid, myLo, myHi)
			b.ShrI(mid, mid, 1)
			b.Spawn(0)
			emitLevelChunk(b, myLo, mid, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, false, 0)
			b.JoinWait()
		case MultiGhost:
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitLevelChunk(b, myLo, myHi, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, false, ctrA)
			b.Join()
		default:
			emitLevelChunk(b, myLo, myHi, du, depthR, parentR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, tech == MultiSWPF, 0)
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
	inst.Check = func(m *mem.Memory) error {
		for v := int64(0); v < n; v++ {
			if got := m.LoadWord(depthA + v); got != wantDepth[v] {
				return fmt.Errorf("%s: depth[%d] = %d, want %d", name, v, got, wantDepth[v])
			}
		}
		// Parents may differ between valid claims: check adjacency.
		for v := int64(0); v < n; v++ {
			if v == source || wantDepth[v] < 0 {
				continue
			}
			p := m.LoadWord(parentA + v)
			ok := false
			for _, w := range g.Neighbors(v) {
				if w == p {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("%s: node %d has non-adjacent parent %d", name, v, p)
			}
		}
		return nil
	}
	return inst
}
