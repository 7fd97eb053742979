package workloads

import (
	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

func init() { registerGAP("pr", NewPR) }

// PageRank fixed-point parameters (scores are value × 2^prShift).
const (
	prIters = 5
	prShift = 16
	prOne   = int64(1) << prShift
	prAlpha = 55705 // 0.85 × 2^16
	prBase  = 9830  // 0.15 × 2^16
)

// NewPR builds GAP PageRank: pull-style power iterations in fixed-point
// integer arithmetic (bit-exact across all variants, including the
// parallel one — contributions are read-only during the pull phase).
// The target load is contrib[neigh[ei]].
//
// PageRank is the paper's negative case for the heuristic on kron/urand
// (§6.1): the pull loop's dynamic size is below the 10-instruction
// threshold, so no target loads are selected, Ghost Threading falls back
// to SMT OpenMP, and that slows pr.kron/pr.urand down.
func NewPR(graphName string, opts Options) *Instance {
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 4, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	scoreA := h.Alloc(n)
	contribA := h.Alloc(n)
	for v := int64(0); v < n; v++ {
		mm.StoreWord(scoreA+v, prOne)
	}

	wantScore := prReference(g)

	name := "pr." + graphName

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder(name + "-" + kind.suffix())
		b.Func("PageRankPull")
		scoreR := b.Imm(scoreA)
		contribR := b.Imm(contribA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		nR := b.Imm(n)
		iters := b.Imm(prIters)
		tmp := b.Reg()
		var one, ctrA, halfR isa.Reg // set only where a helper is spawned
		switch kind {
		case camelGhostMain:
			one, ctrA = b.Imm(1), b.Imm(d.mainCtr)
		case camelParMain:
			halfR = b.Imm(n / 2)
		}
		b.CountedLoop("pr_iters", zero, iters, func(it isa.Reg) {
			emitPRContrib(b, zero, nR, scoreR, contribR, offsR)
			switch kind {
			case camelGhostMain:
				b.Store(ctrA, 0, zero)
				b.Spawn(0)
				emitPRPull(b, kind, zero, nR, scoreR, contribR, offsR, neighR, one, tmp, ctrA)
				b.Join()
			case camelParMain:
				b.Spawn(0)
				emitPRPull(b, kind, zero, halfR, scoreR, contribR, offsR, neighR, one, tmp, ctrA)
				b.JoinWait()
			default:
				emitPRPull(b, kind, zero, nR, scoreR, contribR, offsR, neighR, one, tmp, ctrA)
			}
		})

		emitChecksum(b, "pr_checksum", zero, scoreR, func() isa.Reg { return nR }, d.out)
		b.Halt()
		return b.MustBuild()
	}

	return &Instance{
		Name:     name,
		Mem:      mm,
		Counters: d.counters(),
		Check: combineChecks(
			checkWord(d.out, wordSum(wantScore), name+" score checksum"),
			checkWords(scoreA, wantScore, name+" score"),
		),
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: &Variant{Main: buildMain(camelParMain), Helpers: []*isa.Program{prWorker(name+"-worker", d, scoreA, contribA, n/2, n)}},
		Ghost: &Variant{Main: buildMain(camelGhostMain), Helpers: []*isa.Program{
			prGhost(name+"-ghost", opts.Sync, d.counters(), d, contribA, 0, n)}},
	}
}

// prReference runs prIters pull iterations in Go with the kernel's
// integer arithmetic and returns the final scores.
func prReference(g *graph.CSR) []int64 {
	n := g.N
	score := make([]int64, n)
	contrib := make([]int64, n)
	for v := range score {
		score[v] = prOne
	}
	for it := 0; it < prIters; it++ {
		for u := int64(0); u < n; u++ {
			if deg := g.Degree(u); deg > 0 {
				contrib[u] = score[u] / deg
			} else {
				contrib[u] = 0
			}
		}
		for v := int64(0); v < n; v++ {
			var sum int64
			for _, u := range g.Neighbors(v) {
				sum += contrib[u]
			}
			score[v] = prBase + (prAlpha*sum)>>prShift
		}
	}
	return score
}

// emitPRContrib emits the per-node contribution pass over nodes [lo, hi).
func emitPRContrib(b *isa.Builder, lo, hi, scoreR, contribR, offsR isa.Reg) {
	b.CountedLoop("pr_contrib", lo, hi, func(u isa.Reg) {
		oa := b.Reg()
		b.Add(oa, offsR, u)
		s := b.Reg()
		b.Load(s, oa, 0)
		e := b.Reg()
		b.Load(e, oa, 1)
		deg := b.Reg()
		b.Sub(deg, e, s)
		sa := b.Reg()
		b.Add(sa, scoreR, u)
		sv := b.Reg()
		b.Load(sv, sa, 0)
		c := b.Reg()
		b.Div(c, sv, deg) // OpDiv yields 0 on zero degree
		ca := b.Reg()
		b.Add(ca, contribR, u)
		b.Store(ca, 0, c)
	})
}

// emitPRPull emits the pull phase over nodes [lo, hi). kind camelSWPF
// adds the unguarded lookahead prefetch over the padded adjacency array;
// camelGhostMain publishes the per-edge iteration counter at ctrA.
func emitPRPull(b *isa.Builder, kind camelKind, lo, hi isa.Reg,
	scoreR, contribR, offsR, neighR, one isa.Reg, tmp isa.Reg, ctrA isa.Reg) {
	b.CountedLoop("pr_pull", lo, hi, func(v isa.Reg) {
		oa := b.Reg()
		b.Add(oa, offsR, v)
		s := b.Reg()
		b.Load(s, oa, 0)
		e := b.Reg()
		b.Load(e, oa, 1)
		sum := b.Reg()
		b.Const(sum, 0)
		b.CountedLoop("pr_pull_inner", s, e, func(ei isa.Reg) {
			na := b.Reg()
			b.Add(na, neighR, ei)
			if kind == camelSWPF {
				pu := b.Reg()
				b.Load(pu, na, SWPFDistance)
				pca := b.Reg()
				b.Add(pca, contribR, pu)
				b.Prefetch(pca, 0)
			}
			u := b.Reg()
			b.Load(u, na, 0)
			ca := b.Reg()
			b.Add(ca, contribR, u)
			cu := b.Reg()
			b.Load(cu, ca, 0) // the target load
			b.MarkTarget()
			b.Add(sum, sum, cu)
			if kind == camelGhostMain {
				core.EmitUpdate(b, ctrA, one, tmp)
			}
		})
		b.MulI(sum, sum, prAlpha)
		b.ShrI(sum, sum, prShift)
		b.AddI(sum, sum, prBase)
		sca := b.Reg()
		b.Add(sca, scoreR, v)
		b.Store(sca, 0, sum)
	})
}

// prWorker builds the SMT worker that pulls nodes [lo, hi).
func prWorker(name string, d *gapData, scoreA, contribA, lo, hi int64) *isa.Program {
	b := isa.NewBuilder(name)
	b.Func("PageRankPull")
	scoreR := b.Imm(scoreA)
	contribR := b.Imm(contribA)
	offsR := b.Imm(d.offsets)
	neighR := b.Imm(d.neigh)
	tmp := b.Reg()
	emitPRPull(b, camelBase, b.Imm(lo), b.Imm(hi), scoreR, contribR, offsR, neighR, 0, tmp, 0)
	b.Halt()
	return b.MustBuild()
}

// prGhost builds the ghost thread of the pull phase over nodes [lo, hi),
// synchronised through ctr.
func prGhost(name string, sync core.SyncParams, ctr core.Counters, d *gapData, contribA, lo, hi int64) *isa.Program {
	b := isa.NewBuilder(name)
	b.Func("PageRankPull")
	st := core.NewSync(b, sync, ctr)
	contribR := b.Imm(contribA)
	offsR := b.Imm(d.offsets)
	neighR := b.Imm(d.neigh)
	b.CountedLoop("pr_pull_g", b.Imm(lo), b.Imm(hi), func(v isa.Reg) {
		oa := b.Reg()
		b.Add(oa, offsR, v)
		s := b.Reg()
		b.Load(s, oa, 0)
		e := b.Reg()
		b.Load(e, oa, 1)
		b.CountedLoop("pr_pull_inner_g", s, e, func(ei isa.Reg) {
			na := b.Reg()
			b.Add(na, neighR, ei)
			u := b.Reg()
			b.Load(u, na, 0)
			ca := b.Reg()
			b.Add(ca, contribR, u)
			b.Prefetch(ca, 0)
			core.EmitSync(b, st, func() {
				b.AddI(ei, ei, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
	})
	b.Halt()
	return b.MustBuild()
}
