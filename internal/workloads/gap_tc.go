package workloads

import (
	"sort"

	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

func init() { registerGAP("tc", NewTC) }

// tcGraph returns the (smaller) inputs triangle counting uses: tc's work
// grows superlinearly with edges, so its graphs are one notch below the
// other kernels' (DESIGN.md §7 records this deviation).
func tcGraph(name string, scale Scale) *graph.CSR {
	eval := scale == ScaleEval
	switch name {
	case "kron":
		if eval {
			return graph.Kron(11, 12, 27)
		}
		return graph.Kron(9, 8, 26)
	case "urand":
		if eval {
			return graph.URand(2048, 12, 27)
		}
		return graph.URand(512, 8, 26)
	case "twitter":
		if eval {
			return graph.Twitter(2048, 12, 61)
		}
		return graph.Twitter(512, 8, 60)
	case "road":
		if eval {
			return graph.Road(48, 7)
		}
		return graph.Road(24, 6)
	}
	panic("workloads: unknown tc graph " + name)
}

// tcInput is the undirected tcGraph input, built once per process.
func tcInput(name string, scale Scale) *graph.CSR {
	return undirectedGraph(graphKey{tc: true, name: name, scale: scale})
}

// NewTC builds GAP Triangle Counting with the ordered binary-search
// formulation: for each wedge u<v (edge) and w>v in N(v), search w in
// N(u). The target load is the binary-search probe neigh[mid] — a
// data-dependent access whose address depends on the previous probe.
//
// tc is the least memory-bound GAP kernel (search paths over hot
// adjacency lists cache well), so all techniques show modest effects,
// matching the paper's figure 6.
func NewTC(graphName string, opts Options) *Instance {
	g := tcInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 2, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)

	// Reference count with the identical wedge enumeration.
	var want int64
	for u := int64(0); u < n; u++ {
		nu := g.Neighbors(u)
		for _, v := range nu {
			if v <= u {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w <= v {
					continue
				}
				if i := sort.Search(len(nu), func(i int) bool { return nu[i] >= w }); i < len(nu) && nu[i] == w {
					want++
				}
			}
		}
	}

	name := "tc." + graphName

	// emitCount emits the triangle count over u in [lo, hi) into cnt.
	emitCount := func(b *isa.Builder, kind camelKind, lo, hi isa.Reg,
		offsR, neighR, one, cnt isa.Reg, tmp isa.Reg, ctrA isa.Reg) {
		b.CountedLoop("tc_outer", lo, hi, func(u isa.Reg) {
			oa := b.Reg()
			b.Add(oa, offsR, u)
			us := b.Reg()
			b.Load(us, oa, 0)
			ue := b.Reg()
			b.Load(ue, oa, 1)
			b.CountedLoop("tc_mid", us, ue, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				v := b.Reg()
				b.Load(v, na, 0)
				nextV := b.NewLabel()
				b.BLE(v, u, nextV)
				voa := b.Reg()
				b.Add(voa, offsR, v)
				vs := b.Reg()
				b.Load(vs, voa, 0)
				ve := b.Reg()
				b.Load(ve, voa, 1)
				b.CountedLoop("tc_wedge", vs, ve, func(fi isa.Reg) {
					wa := b.Reg()
					b.Add(wa, neighR, fi)
					w := b.Reg()
					b.Load(w, wa, 0)
					nextW := b.NewLabel()
					b.BLE(w, v, nextW)
					// Binary search for w in N(u) = neigh[us:ue).
					lo2 := b.Reg()
					b.Mov(lo2, us)
					hi2 := b.Reg()
					b.Mov(hi2, ue)
					bs := b.LoopBegin("tc_bsearch")
					bsTop := b.HereLabel()
					bsDone := b.NewLabel()
					b.BGE(lo2, hi2, bsDone)
					mid := b.Reg()
					b.Add(mid, lo2, hi2)
					b.ShrI(mid, mid, 1)
					ma := b.Reg()
					b.Add(ma, neighR, mid)
					x := b.Reg()
					b.Load(x, ma, 0) // the target load (search probe)
					b.MarkTarget()
					goRight := b.NewLabel()
					b.BLT(x, w, goRight)
					b.Mov(hi2, mid)
					bsBe := b.Jmp(bsTop)
					b.SetBackedge(bs, bsBe)
					b.Bind(goRight)
					b.AddI(lo2, mid, 1)
					b.Jmp(bsTop)
					b.LoopEnd(bs)
					b.Bind(bsDone)
					// Found iff lo2 < ue and neigh[lo2] == w.
					miss := b.NewLabel()
					b.BGE(lo2, ue, miss)
					fa := b.Reg()
					b.Add(fa, neighR, lo2)
					fv := b.Reg()
					b.Load(fv, fa, 0)
					b.BNE(fv, w, miss)
					b.Add(cnt, cnt, one)
					b.Bind(miss)
					b.Bind(nextW)
				})
				b.Bind(nextV)
				// The shared counter counts middle-loop iterations (one
				// per (u,v) wedge list), matching the ghost's loop.
				if kind == camelGhostMain {
					core.EmitUpdate(b, ctrA, one, tmp)
				}
			})
		})
	}

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder(name + "-" + [...]string{"base", "swpf", "par", "ghostmain"}[kind])
		b.Func("TriangleCount")
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		one := b.Imm(1)
		hi := n // the parallel main counts the lower half, its worker the upper
		if kind == camelParMain {
			hi = n / 2
		}
		hiR := b.Imm(hi)
		cnt := b.Imm(0)
		tmp := b.Reg()
		var ctrA isa.Reg
		if kind == camelGhostMain {
			ctrA = b.Imm(d.mainCtr)
		}
		// SWPF cannot help the binary search (each probe's address
		// depends on the previous probe's value), so the paper's SWPF
		// leaves tc alone; our SWPF variant is the baseline code.
		if kind == camelGhostMain || kind == camelParMain {
			b.Spawn(0)
		}
		emitCount(b, kind, zero, hiR, offsR, neighR, one, cnt, tmp, ctrA)
		switch kind {
		case camelGhostMain:
			b.Join()
		case camelParMain:
			b.JoinWait()
			pw := b.Imm(d.partial)
			pv := b.Reg()
			b.Load(pv, pw, 0)
			b.Add(cnt, cnt, pv)
		}
		outR := b.Imm(d.out)
		b.Store(outR, 0, cnt)
		b.Halt()
		return b.MustBuild()
	}

	buildParWorker := func() *isa.Program {
		b := isa.NewBuilder(name + "-worker")
		b.Func("TriangleCount")
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		one := b.Imm(1)
		cnt := b.Imm(0)
		tmp := b.Reg()
		emitCount(b, camelBase, b.Imm(n/2), b.Imm(n), offsR, neighR, one, cnt, tmp, 0)
		pw := b.Imm(d.partial)
		b.Store(pw, 0, cnt)
		b.Halt()
		return b.MustBuild()
	}

	// The ghost thread warms N(v) lists and the top of each binary
	// search: the search's first probes (the hot head of N(u)) cache
	// well, so the slice prefetches the wedge list stream instead.
	buildGhost := func() *isa.Program {
		b := isa.NewBuilder(name + "-ghost")
		b.Func("TriangleCount")
		st := core.NewSync(b, opts.Sync, d.counters())
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		nR := b.Imm(n)
		b.CountedLoop("tc_outer_g", zero, nR, func(u isa.Reg) {
			oa := b.Reg()
			b.Add(oa, offsR, u)
			us := b.Reg()
			b.Load(us, oa, 0)
			ue := b.Reg()
			b.Load(ue, oa, 1)
			// Prefetch the binary search's first probe of N(u): every
			// search over this u starts at the same midpoint.
			um := b.Reg()
			b.Add(um, us, ue)
			b.ShrI(um, um, 1)
			b.Add(um, neighR, um)
			b.Prefetch(um, 0)
			b.CountedLoop("tc_mid_g", us, ue, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				v := b.Reg()
				b.Load(v, na, 0)
				nextV := b.NewLabel()
				b.BLE(v, u, nextV)
				voa := b.Reg()
				b.Add(voa, offsR, v)
				vs := b.Reg()
				b.Load(vs, voa, 0)
				ve := b.Reg()
				b.Load(ve, voa, 1)
				// Prefetch the head and middle of N(v): the wedge scan
				// streams it, and the search repeatedly halves into the
				// midpoint region.
				pva := b.Reg()
				b.Add(pva, neighR, vs)
				b.Prefetch(pva, 0)
				midp := b.Reg()
				b.Add(midp, vs, ve)
				b.ShrI(midp, midp, 1)
				b.Add(midp, neighR, midp)
				b.Prefetch(midp, 0)
				b.Bind(nextV)
				core.EmitSync(b, st, func() {
					b.AddI(ei, ei, st.Params.SkipStep)
					core.AdvanceLocal(b, st, st.Params.SkipStep)
				})
			})
		})
		b.Halt()
		return b.MustBuild()
	}

	return &Instance{
		Name:     name,
		Mem:      mm,
		Counters: d.counters(),
		Check:    checkWord(d.out, want, name+" triangles"),
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: &Variant{Main: buildMain(camelParMain), Helpers: []*isa.Program{buildParWorker()}},
		Ghost:    &Variant{Main: buildMain(camelGhostMain), Helpers: []*isa.Program{buildGhost()}},
	}
}
