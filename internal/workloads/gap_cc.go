package workloads

import (
	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

func init() { registerGAP("cc", NewCC) }

// NewCC builds GAP Connected Components in the Afforest style the paper
// profiles (§6.5): repeated link passes that pull each node's label down
// to the minimum of its neighbours' labels, interleaved with
// pointer-jumping compression, until a fixed point. The hot loop is the
// link pass; the target load is comp[v] — a random access per edge.
//
// The fixed point is the same no matter how passes interleave (labels
// only ever decrease toward the component minimum), so even the racy
// parallel variant converges to exactly the per-component minimum label,
// and a single strong Check covers every variant.
func NewCC(graphName string, opts Options) *Instance {
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 3, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	compA := h.Alloc(n)
	changedA := h.Alloc(1) // shared "labels changed this pass" counter

	for v := int64(0); v < n; v++ {
		mm.StoreWord(compA+v, v)
	}

	wantComp := ccReference(g)

	name := "cc." + graphName

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder(name + "-" + [...]string{"base", "swpf", "par", "ghostmain"}[kind])
		b.Func("Afforest")
		compR := b.Imm(compA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		changedAR := b.Imm(changedA)
		zero := b.Imm(0)
		one := b.Imm(1)
		nR := b.Imm(n)
		var halfR isa.Reg // only the parallel main splits the nodes
		if kind == camelParMain {
			halfR = b.Imm(n / 2)
		}
		tmp := b.Reg()
		var ctrA, gctrA isa.Reg
		if kind == camelGhostMain {
			ctrA = b.Imm(d.mainCtr)
			gctrA = b.Imm(d.ghostCtr)
		}

		passes := b.LoopBegin("cc_passes")
		top := b.HereLabel()
		b.Store(changedAR, 0, zero)
		switch kind {
		case camelGhostMain:
			b.Store(ctrA, 0, zero)
			b.Store(gctrA, 0, zero) // keep the distance trace clean across passes
			b.Spawn(0)
			emitCCLink(b, kind, zero, nR, compR, offsR, neighR, changedAR, one, tmp, ctrA)
			b.Join()
			emitCCCompress(b, zero, nR, compR)
		case camelParMain:
			// The worker links and compresses the upper half.
			b.Spawn(0)
			emitCCLink(b, kind, zero, halfR, compR, offsR, neighR, changedAR, one, tmp, ctrA)
			emitCCCompress(b, zero, halfR, compR)
			b.JoinWait()
		default:
			emitCCLink(b, kind, zero, nR, compR, offsR, neighR, changedAR, one, tmp, ctrA)
			emitCCCompress(b, zero, nR, compR)
		}
		ch := b.Reg()
		b.Load(ch, changedAR, 0)
		be := b.BGT(ch, zero, top)
		b.SetBackedge(passes, be)
		b.LoopEnd(passes)

		b.Func("checksum")
		sum := b.Imm(0)
		b.CountedLoop("cc_checksum", zero, nR, func(v isa.Reg) {
			ca := b.Reg()
			b.Add(ca, compR, v)
			cv := b.Reg()
			b.Load(cv, ca, 0)
			b.Add(sum, sum, cv)
		})
		outR := b.Imm(d.out)
		b.Store(outR, 0, sum)
		b.Halt()
		return b.MustBuild()
	}

	buildParWorker := func() *isa.Program {
		b := isa.NewBuilder(name + "-worker")
		b.Func("Afforest")
		compR := b.Imm(compA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		changedAR := b.Imm(changedA)
		one := b.Imm(1)
		tmp := b.Reg()
		halfR := b.Imm(n / 2)
		nR := b.Imm(n)
		emitCCLink(b, camelBase, halfR, nR, compR, offsR, neighR, changedAR, one, tmp, 0)
		emitCCCompress(b, halfR, nR, compR)
		b.Halt()
		return b.MustBuild()
	}

	return &Instance{
		Name:     name,
		Mem:      mm,
		Counters: d.counters(),
		Check: combineChecks(
			checkWord(d.out, wordSum(wantComp), name+" label checksum"),
			checkWords(compA, wantComp, name+" comp"),
		),
		// The racy parallel variant reaches the identical fixed point.
		CheckRelaxed: checkWords(compA, wantComp, name+" comp"),
		Baseline:     &Variant{Main: buildMain(camelBase)},
		SWPF:         &Variant{Main: buildMain(camelSWPF)},
		Parallel:     &Variant{Main: buildMain(camelParMain), Helpers: []*isa.Program{buildParWorker()}},
		Ghost: &Variant{Main: buildMain(camelGhostMain), Helpers: []*isa.Program{
			ccGhost(name+"-ghost", opts.Sync, d.counters(), d, compA, 0, n)}},
	}
}

// ccReference returns the expected fixed point, the minimum node id of
// each component, computed with a Go union-find (not the kernel itself,
// so the check is independent of the IR implementation).
func ccReference(g *graph.CSR) []int64 {
	n := g.N
	parent := make([]int64, n)
	for v := range parent {
		parent[v] = int64(v)
	}
	find := func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := int64(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			ru, rv := find(u), find(v)
			if ru != rv {
				if ru < rv {
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	comp := make([]int64, n)
	for v := int64(0); v < n; v++ {
		comp[v] = find(v)
	}
	return comp
}

// emitCCLink emits one link pass over nodes [lo, hi) in the Afforest
// hooking style: per edge, re-read comp[u], compare with comp[v], and
// hook comp[u] down immediately when the neighbour's label is lower.
// kind camelSWPF adds the unguarded lookahead prefetch over the padded
// adjacency array; camelGhostMain publishes the per-edge iteration
// counter at ctrA.
func emitCCLink(b *isa.Builder, kind camelKind, lo, hi isa.Reg,
	compR, offsR, neighR, changedAR, one isa.Reg, tmp isa.Reg, ctrA isa.Reg) {
	b.CountedLoop("cc_link", lo, hi, func(u isa.Reg) {
		oa := b.Reg()
		b.Add(oa, offsR, u)
		s := b.Reg()
		b.Load(s, oa, 0)
		e := b.Reg()
		b.Load(e, oa, 1)
		ca := b.Reg()
		b.Add(ca, compR, u)
		b.CountedLoop("cc_link_inner", s, e, func(ei isa.Reg) {
			na := b.Reg()
			b.Add(na, neighR, ei)
			if kind == camelSWPF {
				pv := b.Reg()
				b.Load(pv, na, SWPFDistance)
				ppa := b.Reg()
				b.Add(ppa, compR, pv)
				b.Prefetch(ppa, 0)
			}
			v := b.Reg()
			b.Load(v, na, 0)
			cu := b.Reg()
			b.Load(cu, ca, 0) // comp[u]: hot line, re-read per edge
			cva := b.Reg()
			b.Add(cva, compR, v)
			cv := b.Reg()
			b.Load(cv, cva, 0) // the target load
			b.MarkTarget()
			skip := b.NewLabel()
			b.BGE(cv, cu, skip)
			b.Store(ca, 0, cv) // hook comp[u] down
			b.AtomicAdd(tmp, changedAR, 0, one)
			b.Bind(skip)
			if kind == camelGhostMain {
				core.EmitUpdate(b, ctrA, one, tmp)
			}
		})
	})
}

// emitCCCompress emits the pointer-jumping pass over [lo, hi).
func emitCCCompress(b *isa.Builder, lo, hi isa.Reg, compR isa.Reg) {
	b.CountedLoop("cc_compress", lo, hi, func(u isa.Reg) {
		ca := b.Reg()
		b.Add(ca, compR, u)
		c := b.Reg()
		b.Load(c, ca, 0)
		jl := b.LoopBegin("cc_jump")
		top := b.HereLabel()
		cca := b.Reg()
		b.Add(cca, compR, c)
		cc := b.Reg()
		b.Load(cc, cca, 0)
		done := b.NewLabel()
		b.BGE(cc, c, done)
		b.Mov(c, cc)
		be := b.Jmp(top)
		b.SetBackedge(jl, be)
		b.LoopEnd(jl)
		b.Bind(done)
		b.Store(ca, 0, c)
	})
}

// ccGhost builds the ghost thread of the link pass over nodes [lo, hi),
// synchronised through ctr.
func ccGhost(name string, sync core.SyncParams, ctr core.Counters, d *gapData, compA, lo, hi int64) *isa.Program {
	b := isa.NewBuilder(name)
	b.Func("Afforest")
	st := core.NewSync(b, sync, ctr)
	compR := b.Imm(compA)
	offsR := b.Imm(d.offsets)
	neighR := b.Imm(d.neigh)
	b.CountedLoop("cc_link_g", b.Imm(lo), b.Imm(hi), func(u isa.Reg) {
		oa := b.Reg()
		b.Add(oa, offsR, u)
		s := b.Reg()
		b.Load(s, oa, 0)
		e := b.Reg()
		b.Load(e, oa, 1)
		b.CountedLoop("cc_link_inner_g", s, e, func(ei isa.Reg) {
			na := b.Reg()
			b.Add(na, neighR, ei)
			v := b.Reg()
			b.Load(v, na, 0)
			cva := b.Reg()
			b.Add(cva, compR, v)
			b.Prefetch(cva, 0)
			core.EmitSync(b, st, func() {
				b.AddI(ei, ei, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
	})
	b.Halt()
	return b.MustBuild()
}
