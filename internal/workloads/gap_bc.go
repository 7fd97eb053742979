package workloads

import (
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

func init() { registerGAP("bc", NewBC) }

// bcShift is the fixed-point scale for dependency (delta) values.
const bcShift = 12

// NewBC builds GAP Betweenness Centrality (Brandes, single source, in
// fixed-point integer arithmetic): a forward BFS that counts shortest
// paths (sigma) per node, then a backward sweep over the BFS order
// accumulating dependencies (delta). Target loads are depth[v]/sigma[v]
// in the forward phase and depth/sigma/delta in the backward phase.
//
// The parallel variant splits each BFS level (and each backward level)
// between the SMT contexts; sigma and delta accumulate with atomic adds
// and level claims use atomic increments, so the result is deterministic
// and all variants are checked for exact equality.
func NewBC(graphName string, opts Options) *Instance {
	// bc's ghost prefetches three property words per edge (depth, sigma,
	// delta), so its run-ahead window holds ~3x the lines of the other
	// kernels'; the profiled-and-tuned sync distances are accordingly
	// tighter (paper §4.3.2: hyper-parameters are tuned per deployment).
	if opts.Sync.TooFar > 48 {
		opts.Sync.TooFar, opts.Sync.Close = 48, 16
	}
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 8, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	depthA := h.Alloc(n)
	sigmaA := h.Alloc(n)
	deltaA := h.Alloc(n)
	claimA := h.Alloc(n) // atomic claim counters for the parallel variant
	queueA := h.Alloc(2 * n)
	levelStartA := h.Alloc(n + 2) // queue index where each level begins
	qTailA := h.Alloc(1)          // shared queue tail (atomic push)
	shLo := h.Alloc(1)
	shHi := h.Alloc(1)
	shDepth := h.Alloc(1)
	shDir := h.Alloc(1)

	source := maxDegreeNode(g)
	mm.Fill(depthA, n, -1)
	mm.StoreWord(depthA+source, 0)
	mm.StoreWord(sigmaA+source, 1)
	mm.StoreWord(queueA, source)
	mm.StoreWord(qTailA, 1)

	// Go reference (same algorithm, same integer arithmetic).
	depth := make([]int64, n)
	sigma := make([]int64, n)
	delta := make([]int64, n)
	for v := range depth {
		depth[v] = -1
	}
	depth[source] = 0
	sigma[source] = 1
	queue := []int64{source}
	levelStart := []int64{0}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g.Neighbors(u) {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
			if depth[v] == depth[u]+1 {
				sigma[v] += sigma[u]
			}
		}
	}
	// Level starts for the backward sweep.
	levelStart = levelStart[:0]
	for qi, u := range queue {
		if qi == 0 || depth[u] != depth[queue[qi-1]] {
			levelStart = append(levelStart, int64(qi))
		}
	}
	levelStart = append(levelStart, int64(len(queue)))
	for qi := len(queue) - 1; qi >= 0; qi-- {
		v := queue[qi]
		coeff := ((int64(1) << bcShift) + delta[v]) / sigma[v]
		for _, w := range g.Neighbors(v) {
			if depth[w] == depth[v]-1 {
				delta[w] += sigma[w] * coeff
			}
		}
	}
	var wantSum int64
	for _, dv := range delta {
		wantSum += dv
	}

	name := "bc." + graphName
	dPf := SWPFDistance

	// emitForward emits one forward BFS level over queue[lo, hi) at the
	// given depth register. Claims use atomic increments so the parallel
	// halves cannot double-push; sigma accumulates atomically.
	emitForward := func(b *isa.Builder, kind camelKind, lo, hi, du isa.Reg,
		depthR, sigmaR, claimR, queueR, qTailR, offsR, neighR, zero, one isa.Reg, tmp isa.Reg, ctrA isa.Reg) {
		du1 := b.Reg()
		b.AddI(du1, du, 1)
		b.CountedLoop("bc_fwd", lo, hi, func(qi isa.Reg) {
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
			su := b.Reg()
			sa := b.Reg()
			b.Add(sa, sigmaR, u)
			b.Load(su, sa, 0)
			b.CountedLoop("bc_fwd_inner", s, e, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				if kind == camelSWPF {
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
				b.Load(dv, dva, 0) // target load: depth[v]
				b.MarkTarget()
				seen := b.NewLabel()
				b.BGE(dv, zero, seen)
				// Unvisited: claim atomically; only the first claimer
				// writes depth and pushes.
				ca := b.Reg()
				b.Add(ca, claimR, v)
				cl := b.Reg()
				b.AtomicAdd(cl, ca, 0, one)
				notFirst := b.NewLabel()
				b.BNE(cl, one, notFirst)
				b.Store(dva, 0, du1)
				ti := b.Reg()
				b.AtomicAdd(ti, qTailR, 0, one)
				b.AddI(ti, ti, -1)
				qa := b.Reg()
				b.Add(qa, queueR, ti)
				b.Store(qa, 0, v)
				b.Bind(notFirst)
				b.Bind(seen)
				// if depth[v] == depth[u]+1: sigma[v] += sigma[u]
				dv2 := b.Reg()
				b.Load(dv2, dva, 0)
				notNext := b.NewLabel()
				b.BNE(dv2, du1, notNext)
				sva := b.Reg()
				b.Add(sva, sigmaR, v)
				b.AtomicAdd(tmp, sva, 0, su)
				b.Bind(notNext)
				if kind == camelGhostMain {
					core.EmitUpdate(b, ctrA, one, tmp)
				}
			})
		})
	}

	// emitBackward emits one backward level over queue[lo, hi).
	emitBackward := func(b *isa.Builder, kind camelKind, lo, hi isa.Reg,
		depthR, sigmaR, deltaR, queueR, offsR, neighR, one isa.Reg, tmp isa.Reg, ctrA isa.Reg) {
		fix := b.Imm(int64(1) << bcShift)
		b.CountedLoop("bc_bwd", lo, hi, func(qi isa.Reg) {
			va := b.Reg()
			b.Add(va, queueR, qi)
			v := b.Reg()
			b.Load(v, va, 0)
			dla := b.Reg()
			b.Add(dla, deltaR, v)
			dl := b.Reg()
			b.Load(dl, dla, 0)
			sva := b.Reg()
			b.Add(sva, sigmaR, v)
			sv := b.Reg()
			b.Load(sv, sva, 0)
			coeff := b.Reg()
			b.Add(coeff, fix, dl)
			b.Div(coeff, coeff, sv)
			dpa := b.Reg()
			b.Add(dpa, depthR, v)
			dpv := b.Reg()
			b.Load(dpv, dpa, 0)
			dm1 := b.Reg()
			b.AddI(dm1, dpv, -1)
			oa := b.Reg()
			b.Add(oa, offsR, v)
			s := b.Reg()
			b.Load(s, oa, 0)
			e := b.Reg()
			b.Load(e, oa, 1)
			b.CountedLoop("bc_bwd_inner", s, e, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				w := b.Reg()
				b.Load(w, na, 0)
				dwa := b.Reg()
				b.Add(dwa, depthR, w)
				dw := b.Reg()
				b.Load(dw, dwa, 0) // target load: depth[w]
				b.MarkTarget()
				notPred := b.NewLabel()
				b.BNE(dw, dm1, notPred)
				swa := b.Reg()
				b.Add(swa, sigmaR, w)
				sw := b.Reg()
				b.Load(sw, swa, 0)
				t := b.Reg()
				b.Mul(t, sw, coeff)
				dla2 := b.Reg()
				b.Add(dla2, deltaR, w)
				b.AtomicAdd(tmp, dla2, 0, t)
				b.Bind(notPred)
				if kind == camelGhostMain {
					core.EmitUpdate(b, ctrA, one, tmp)
				}
			})
		})
	}

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder(name + "-" + [...]string{"base", "swpf", "par", "ghostmain"}[kind])
		b.Func("Brandes")
		depthR := b.Imm(depthA)
		sigmaR := b.Imm(sigmaA)
		deltaR := b.Imm(deltaA)
		claimR := b.Imm(claimA)
		queueR := b.Imm(queueA)
		qTailR := b.Imm(qTailA)
		lvlR := b.Imm(levelStartA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		one := b.Imm(1)
		tmp := b.Reg()
		var ctrA, shL, shH, shD, shDr isa.Reg // set only where a helper is spawned
		switch kind {
		case camelGhostMain:
			ctrA, shL, shH, shDr = b.Imm(d.mainCtr), b.Imm(shLo), b.Imm(shHi), b.Imm(shDir)
		case camelParMain:
			shL, shH, shD, shDr = b.Imm(shLo), b.Imm(shHi), b.Imm(shDepth), b.Imm(shDir)
		}

		// Forward phase, level by level. levelStart[l] tracks the queue
		// position where level l begins.
		lvl := b.Reg()
		b.Const(lvl, 0)
		lo := b.Reg()
		b.Const(lo, 0)
		du := b.Reg()
		b.Const(du, 0)
		la := b.Reg()
		b.Add(la, lvlR, lvl)
		b.Store(la, 0, zero)
		fwd := b.LoopBegin("bc_levels")
		fwdTop := b.HereLabel()
		fwdDone := b.NewLabel()
		hi := b.Reg()
		b.Load(hi, qTailR, 0)
		b.BGE(lo, hi, fwdDone)
		switch kind {
		case camelGhostMain:
			b.Store(shL, 0, lo)
			b.Store(shH, 0, hi)
			b.Store(shDr, 0, zero) // direction: forward
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitForward(b, kind, lo, hi, du, depthR, sigmaR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, ctrA)
			b.Join()
		case camelParMain:
			mid := b.Reg()
			b.Add(mid, lo, hi)
			b.ShrI(mid, mid, 1)
			b.Store(shL, 0, mid)
			b.Store(shH, 0, hi)
			b.Store(shD, 0, du)
			b.Store(shDr, 0, zero)
			b.Spawn(0)
			emitForward(b, kind, lo, mid, du, depthR, sigmaR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, ctrA)
			b.JoinWait()
		default:
			emitForward(b, kind, lo, hi, du, depthR, sigmaR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, ctrA)
		}
		b.Mov(lo, hi)
		b.AddI(du, du, 1)
		b.AddI(lvl, lvl, 1)
		b.Add(la, lvlR, lvl)
		b.Store(la, 0, hi)
		fwdBe := b.Jmp(fwdTop)
		b.SetBackedge(fwd, fwdBe)
		b.LoopEnd(fwd)
		b.Bind(fwdDone)
		nLevels := b.Reg()
		b.Mov(nLevels, lvl)

		// Backward phase: levels from deepest to shallowest.
		b.Func("BrandesBack")
		bl := b.Reg()
		b.Mov(bl, nLevels)
		bwd := b.LoopBegin("bc_back_levels")
		bwdTop := b.HereLabel()
		bwdDone := b.NewLabel()
		b.BLE(bl, zero, bwdDone)
		bLo := b.Reg()
		b.AddI(bl, bl, -1)
		b.Add(la, lvlR, bl)
		b.Load(bLo, la, 0)
		bHi := b.Reg()
		b.Load(bHi, la, 1)
		switch kind {
		case camelGhostMain:
			b.Store(shL, 0, bLo)
			b.Store(shH, 0, bHi)
			b.Store(shDr, 0, one) // direction: backward
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitBackward(b, kind, bLo, bHi, depthR, sigmaR, deltaR, queueR, offsR, neighR, one, tmp, ctrA)
			b.Join()
		case camelParMain:
			mid := b.Reg()
			b.Add(mid, bLo, bHi)
			b.ShrI(mid, mid, 1)
			b.Store(shL, 0, mid)
			b.Store(shH, 0, bHi)
			b.Store(shDr, 0, one)
			b.Spawn(0)
			emitBackward(b, kind, bLo, mid, depthR, sigmaR, deltaR, queueR, offsR, neighR, one, tmp, ctrA)
			b.JoinWait()
		default:
			emitBackward(b, kind, bLo, bHi, depthR, sigmaR, deltaR, queueR, offsR, neighR, one, tmp, ctrA)
		}
		bwdBe := b.Jmp(bwdTop)
		b.SetBackedge(bwd, bwdBe)
		b.LoopEnd(bwd)
		b.Bind(bwdDone)

		b.Func("checksum")
		sum := b.Imm(0)
		nR := b.Imm(n)
		b.CountedLoop("bc_checksum", zero, nR, func(v isa.Reg) {
			pa := b.Reg()
			b.Add(pa, deltaR, v)
			pv := b.Reg()
			b.Load(pv, pa, 0)
			b.Add(sum, sum, pv)
		})
		outR := b.Imm(d.out)
		b.Store(outR, 0, sum)
		b.Halt()
		return b.MustBuild()
	}

	// The parallel worker handles [shLo, shHi) of the current level in
	// the direction selected by shDir.
	buildParWorker := func() *isa.Program {
		b := isa.NewBuilder(name + "-worker")
		b.Func("Brandes")
		depthR := b.Imm(depthA)
		sigmaR := b.Imm(sigmaA)
		deltaR := b.Imm(deltaA)
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
		dir := b.Reg()
		shL := b.Imm(shLo)
		shH := b.Imm(shHi)
		shD := b.Imm(shDepth)
		shDr := b.Imm(shDir)
		b.Load(lo, shL, 0)
		b.Load(hi, shH, 0)
		b.Load(du, shD, 0)
		b.Load(dir, shDr, 0)
		back := b.NewLabel()
		b.BNE(dir, zero, back)
		emitForward(b, camelBase, lo, hi, du, depthR, sigmaR, claimR, queueR, qTailR, offsR, neighR, zero, one, tmp, 0)
		b.Halt()
		b.Bind(back)
		emitBackward(b, camelBase, lo, hi, depthR, sigmaR, deltaR, queueR, offsR, neighR, one, tmp, 0)
		b.Halt()
		return b.MustBuild()
	}

	// The ghost thread walks the queue slice of the current level and
	// prefetches the per-neighbour property words: depth in the forward
	// phase; depth, sigma, and delta in the backward phase (whose
	// dependency accumulation misses on all three).
	buildGhost := func() *isa.Program {
		b := isa.NewBuilder(name + "-ghost")
		b.Func("Brandes")
		st := core.NewSync(b, opts.Sync, d.counters())
		depthR := b.Imm(depthA)
		sigmaR := b.Imm(sigmaA)
		deltaR := b.Imm(deltaA)
		queueR := b.Imm(queueA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		lo := b.Reg()
		hi := b.Reg()
		dir := b.Reg()
		shL := b.Imm(shLo)
		shH := b.Imm(shHi)
		shDr := b.Imm(shDir)
		b.Load(lo, shL, 0)
		b.Load(hi, shH, 0)
		b.Load(dir, shDr, 0)
		qLast := b.Reg()
		b.AddI(qLast, hi, -1)
		b.Max(qLast, qLast, zero)

		emitLevel := func(suffix string, backward bool) {
			b.CountedLoop("bc_level_g"+suffix, lo, hi, func(qi isa.Reg) {
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
				b.CountedLoop("bc_level_inner_g"+suffix, s, e, func(ei isa.Reg) {
					na := b.Reg()
					b.Add(na, neighR, ei)
					v := b.Reg()
					b.Load(v, na, 0)
					pa := b.Reg()
					b.Add(pa, depthR, v)
					b.Prefetch(pa, 0)
					sga := b.Reg()
					b.Add(sga, sigmaR, v)
					b.Prefetch(sga, 0)
					if backward {
						dla := b.Reg()
						b.Add(dla, deltaR, v)
						b.Prefetch(dla, 0)
					}
					core.EmitSync(b, st, func() {
						b.AddI(ei, ei, st.Params.SkipStep)
						core.AdvanceLocal(b, st, st.Params.SkipStep)
					})
				})
			})
			b.Halt()
		}

		back := b.NewLabel()
		b.BNE(dir, zero, back)
		emitLevel("_f", false)
		b.Bind(back)
		emitLevel("_b", true)
		return b.MustBuild()
	}

	wantDelta := append([]int64(nil), delta...)
	return &Instance{
		Name:     name,
		Mem:      mm,
		Counters: d.counters(),
		Check: combineChecks(
			checkWord(d.out, wantSum, name+" delta checksum"),
			checkWords(deltaA, wantDelta, name+" delta"),
		),
		CheckRelaxed: func(m *mem.Memory) error {
			// Claims and accumulations are atomic, so even the parallel
			// variant is exact up to queue ordering inside a level, which
			// does not affect delta. Verify exact equality.
			for v := int64(0); v < n; v++ {
				if got := m.LoadWord(deltaA + v); got != wantDelta[v] {
					return fmt.Errorf("%s: delta[%d] = %d, want %d", name, v, got, wantDelta[v])
				}
			}
			return nil
		},
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: &Variant{Main: buildMain(camelParMain), Helpers: []*isa.Program{buildParWorker()}},
		Ghost:    &Variant{Main: buildMain(camelGhostMain), Helpers: []*isa.Program{buildGhost()}},
	}
}
