package workloads

import (
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// MultiTech selects the technique of a multi-core build (figure 9's
// redefined techniques, paper §6.4).
type MultiTech int

// Multi-core techniques.
const (
	MultiBaseline MultiTech = iota // one thread per physical core, no SMT
	MultiSWPF                      // parallel baseline + software prefetching
	MultiSMT                       // two OpenMP threads per physical core
	MultiGhost                     // one main + one ghost thread per core
)

// String names the technique.
func (t MultiTech) String() string {
	return [...]string{"baseline", "swpf", "smt-openmp", "ghost"}[t]
}

// CorePrograms is one core's program load.
type CorePrograms struct {
	Main    *isa.Program
	Helpers []*isa.Program
}

// MultiInstance is a multi-core workload build: one program set per core
// over a shared memory image.
type MultiInstance struct {
	Name  string
	Cores int
	Mem   *mem.Memory
	Per   []CorePrograms
	Check func(m *mem.Memory) error
}

// MultiKernels lists the kernels with multi-core variants (figure 9 runs
// the node- and level-parallel GAP kernels; DESIGN.md §7 records the
// subset).
var MultiKernels = []string{"bfs", "cc", "pr"}

// NewMulti builds the named kernel × graph for the given core count and
// technique.
func NewMulti(kernel, graphName string, cores int, tech MultiTech, opts Options) (*MultiInstance, error) {
	switch kernel {
	case "bfs":
		return newMultiBFS(graphName, cores, tech, opts), nil
	case "cc":
		return newMultiCC(graphName, cores, tech, opts), nil
	case "pr":
		return newMultiPR(graphName, cores, tech, opts), nil
	}
	return nil, fmt.Errorf("workloads: kernel %q has no multi-core variant", kernel)
}

// barrierState holds the shared words of the sense-counter barrier.
type barrierState struct {
	arriveA int64 // cumulative arrival counter
	phaseA  int64 // published epoch
	cores   int64
}

// barrierRegs are the per-program registers the barrier uses.
type barrierRegs struct {
	arriveR, phaseR, epochR, one, tmp, tmp2 isa.Reg
}

func newBarrierRegs(b *isa.Builder, st barrierState, one isa.Reg) barrierRegs {
	return barrierRegs{
		arriveR: b.Imm(st.arriveA),
		phaseR:  b.Imm(st.phaseA),
		epochR:  b.Imm(0),
		one:     one,
		tmp:     b.Reg(),
		tmp2:    b.Reg(),
	}
}

// emitBarrier emits a cumulative-counter barrier: the last core to arrive
// at epoch e publishes it; the rest spin on the phase word (which stays
// cache-resident, so spinning burns only the spinner's pipeline).
func emitBarrier(b *isa.Builder, st barrierState, r barrierRegs) {
	b.AddI(r.epochR, r.epochR, 1)
	b.AtomicAdd(r.tmp, r.arriveR, 0, r.one)
	b.MulI(r.tmp2, r.epochR, st.cores)
	spin := b.NewLabel()
	done := b.NewLabel()
	b.BLT(r.tmp, r.tmp2, spin)
	b.Store(r.phaseR, 0, r.epochR) // last arriver publishes the epoch
	b.Jmp(done)
	b.Bind(spin)
	sl := b.LoopBegin("barrier_spin")
	top := b.HereLabel()
	b.Load(r.tmp, r.phaseR, 0)
	be := b.BLT(r.tmp, r.epochR, top)
	b.SetBackedge(sl, be)
	b.LoopEnd(sl)
	b.Bind(done)
}

// multiRange returns core c's node slice [lo, hi) of n nodes.
func multiRange(n int64, cores, c int) (lo, hi int64) {
	lo = n * int64(c) / int64(cores)
	hi = n * int64(c+1) / int64(cores)
	return
}

// newMultiPR builds multi-core PageRank: per iteration, every core
// computes contributions for its node range, barriers, pulls scores for
// its range, and barriers again. Deterministic for every technique.
func newMultiPR(graphName string, cores int, tech MultiTech, opts Options) *MultiInstance {
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 6, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	scoreA := h.Alloc(n)
	contribA := h.Alloc(n)
	bar := barrierState{arriveA: h.Alloc(1), phaseA: h.Alloc(1), cores: int64(cores)}
	ctrBase := h.Alloc(int64(2 * cores)) // per-core main/ghost counter words

	for v := int64(0); v < n; v++ {
		mm.StoreWord(scoreA+v, prOne)
	}

	// Reference (same as single-core pr).
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
	wantScore := append([]int64(nil), score...)

	name := fmt.Sprintf("pr.%s@%d-%s", graphName, cores, tech)

	emitContribRange := func(b *isa.Builder, scoreR, contribR, offsR isa.Reg, lo, hi int64) {
		loR := b.Imm(lo)
		hiR := b.Imm(hi)
		b.CountedLoop("pr_contrib", loR, hiR, func(u isa.Reg) {
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
			b.Div(c, sv, deg)
			ca := b.Reg()
			b.Add(ca, contribR, u)
			b.Store(ca, 0, c)
		})
	}

	emitPullRange := func(b *isa.Builder, scoreR, contribR, offsR, neighR isa.Reg,
		lo, hi int64, withPrefetch bool, ctrA isa.Reg, one isa.Reg, tmp isa.Reg) {
		loR := b.Imm(lo)
		hiR := b.Imm(hi)
		dPf := SWPFDistance
		b.CountedLoop("pr_pull", loR, hiR, func(v isa.Reg) {
			oa := b.Reg()
			b.Add(oa, offsR, v)
			s := b.Reg()
			b.Load(s, oa, 0)
			e := b.Reg()
			b.Load(e, oa, 1)
			sum := b.Reg()
			b.Const(sum, 0)
			var eLast isa.Reg
			if withPrefetch {
				eLast = b.Reg()
				b.AddI(eLast, e, -1)
			}
			b.CountedLoop("pr_pull_inner", s, e, func(ei isa.Reg) {
				if withPrefetch {
					pe := b.Reg()
					b.AddI(pe, ei, dPf)
					b.Min(pe, pe, eLast)
					pna := b.Reg()
					b.Add(pna, neighR, pe)
					pu := b.Reg()
					b.Load(pu, pna, 0)
					pca := b.Reg()
					b.Add(pca, contribR, pu)
					b.Prefetch(pca, 0)
				}
				na := b.Reg()
				b.Add(na, neighR, ei)
				u := b.Reg()
				b.Load(u, na, 0)
				ca := b.Reg()
				b.Add(ca, contribR, u)
				cu := b.Reg()
				b.Load(cu, ca, 0)
				b.Add(sum, sum, cu)
				if ctrA != 0 {
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

	buildGhostRange := func(c int, lo, hi int64) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("%s-ghost-c%d", name, c))
		b.Func("PageRankPull")
		st := core.NewSync(b, opts.Sync, core.Counters{
			MainAddr: ctrBase + int64(2*c), GhostAddr: ctrBase + int64(2*c+1)})
		contribR := b.Imm(contribA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		loR := b.Imm(lo)
		hiR := b.Imm(hi)
		b.CountedLoop("pr_pull_g", loR, hiR, func(v isa.Reg) {
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

	buildWorkerRange := func(c int, lo, hi int64) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("%s-worker-c%d", name, c))
		b.Func("PageRankPull")
		scoreR := b.Imm(scoreA)
		contribR := b.Imm(contribA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		one := b.Imm(1)
		tmp := b.Reg()
		emitPullRange(b, scoreR, contribR, offsR, neighR, lo, hi, false, 0, one, tmp)
		b.Halt()
		return b.MustBuild()
	}

	inst := &MultiInstance{Name: name, Cores: cores, Mem: mm}
	for c := 0; c < cores; c++ {
		lo, hi := multiRange(n, cores, c)
		b := isa.NewBuilder(fmt.Sprintf("%s-c%d", name, c))
		b.Func("PageRankPull")
		scoreR := b.Imm(scoreA)
		contribR := b.Imm(contribA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		one := b.Imm(1)
		zero := b.Imm(0)
		iters := b.Imm(prIters)
		tmp := b.Reg()
		br := newBarrierRegs(b, bar, one)
		var ctrA isa.Reg
		if tech == MultiGhost {
			ctrA = b.Imm(ctrBase + int64(2*c))
		}
		var helpers []*isa.Program
		mid := (lo + hi) / 2
		b.CountedLoop("pr_iters", zero, iters, func(it isa.Reg) {
			emitContribRange(b, scoreR, contribR, offsR, lo, hi)
			emitBarrier(b, bar, br)
			switch tech {
			case MultiSMT:
				b.Spawn(0)
				emitPullRange(b, scoreR, contribR, offsR, neighR, lo, mid, false, 0, one, tmp)
				b.JoinWait()
			case MultiGhost:
				b.Store(ctrA, 0, zero)
				b.Spawn(0)
				emitPullRange(b, scoreR, contribR, offsR, neighR, lo, hi, false, ctrA, one, tmp)
				b.Join()
			default:
				emitPullRange(b, scoreR, contribR, offsR, neighR, lo, hi, tech == MultiSWPF, 0, one, tmp)
			}
			emitBarrier(b, bar, br)
		})
		if c == 0 {
			b.Func("checksum")
			sum := b.Imm(0)
			nR := b.Imm(n)
			b.CountedLoop("pr_checksum", zero, nR, func(v isa.Reg) {
				sa := b.Reg()
				b.Add(sa, scoreR, v)
				sv := b.Reg()
				b.Load(sv, sa, 0)
				b.Add(sum, sum, sv)
			})
			outR := b.Imm(d.out)
			b.Store(outR, 0, sum)
		}
		b.Halt()
		switch tech {
		case MultiSMT:
			helpers = []*isa.Program{buildWorkerRange(c, mid, hi)}
		case MultiGhost:
			helpers = []*isa.Program{buildGhostRange(c, lo, hi)}
		}
		inst.Per = append(inst.Per, CorePrograms{Main: b.MustBuild(), Helpers: helpers})
	}
	inst.Check = checkWords(scoreA, wantScore, name+" score")
	return inst
}

// newMultiCC builds multi-core connected components: per pass, every core
// links and compresses its node range, with two barriers and a
// master-published continue flag.
func newMultiCC(graphName string, cores int, tech MultiTech, opts Options) *MultiInstance {
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 4, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	compA := h.Alloc(n)
	changedA := h.Alloc(1)
	goA := h.Alloc(1)
	bar := barrierState{arriveA: h.Alloc(1), phaseA: h.Alloc(1), cores: int64(cores)}
	ctrBase := h.Alloc(int64(2 * cores))

	for v := int64(0); v < n; v++ {
		mm.StoreWord(compA+v, v)
	}
	mm.StoreWord(goA, 1)

	// Reference fixed point (union-find, as in single-core cc).
	parent := make([]int64, n)
	for v := range parent {
		parent[v] = int64(v)
	}
	var find func(int64) int64
	find = func(x int64) int64 {
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
	wantComp := make([]int64, n)
	for v := int64(0); v < n; v++ {
		wantComp[v] = find(v)
	}

	name := fmt.Sprintf("cc.%s@%d-%s", graphName, cores, tech)
	dPf := SWPFDistance

	emitLinkRange := func(b *isa.Builder, compR, offsR, neighR, changedAR, one, tmp isa.Reg,
		lo, hi int64, withPrefetch bool, ctrA isa.Reg) {
		loR := b.Imm(lo)
		hiR := b.Imm(hi)
		b.CountedLoop("cc_link", loR, hiR, func(u isa.Reg) {
			oa := b.Reg()
			b.Add(oa, offsR, u)
			s := b.Reg()
			b.Load(s, oa, 0)
			e := b.Reg()
			b.Load(e, oa, 1)
			ca := b.Reg()
			b.Add(ca, compR, u)
			var eLast isa.Reg
			if withPrefetch {
				eLast = b.Reg()
				b.AddI(eLast, e, -1)
			}
			b.CountedLoop("cc_link_inner", s, e, func(ei isa.Reg) {
				if withPrefetch {
					pe := b.Reg()
					b.AddI(pe, ei, dPf)
					b.Min(pe, pe, eLast)
					pna := b.Reg()
					b.Add(pna, neighR, pe)
					pv := b.Reg()
					b.Load(pv, pna, 0)
					ppa := b.Reg()
					b.Add(ppa, compR, pv)
					b.Prefetch(ppa, 0)
				}
				na := b.Reg()
				b.Add(na, neighR, ei)
				v := b.Reg()
				b.Load(v, na, 0)
				cu := b.Reg()
				b.Load(cu, ca, 0)
				cva := b.Reg()
				b.Add(cva, compR, v)
				cv := b.Reg()
				b.Load(cv, cva, 0)
				skip := b.NewLabel()
				b.BGE(cv, cu, skip)
				b.Store(ca, 0, cv)
				b.AtomicAdd(tmp, changedAR, 0, one)
				b.Bind(skip)
				if ctrA != 0 {
					core.EmitUpdate(b, ctrA, one, tmp)
				}
			})
		})
	}

	emitCompressRange := func(b *isa.Builder, compR isa.Reg, lo, hi int64) {
		loR := b.Imm(lo)
		hiR := b.Imm(hi)
		b.CountedLoop("cc_compress", loR, hiR, func(u isa.Reg) {
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

	buildGhostRange := func(c int, lo, hi int64) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("%s-ghost-c%d", name, c))
		b.Func("Afforest")
		st := core.NewSync(b, opts.Sync, core.Counters{
			MainAddr: ctrBase + int64(2*c), GhostAddr: ctrBase + int64(2*c+1)})
		compR := b.Imm(compA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		loR := b.Imm(lo)
		hiR := b.Imm(hi)
		b.CountedLoop("cc_link_g", loR, hiR, func(u isa.Reg) {
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

	buildWorkerRange := func(c int, lo, hi int64) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("%s-worker-c%d", name, c))
		b.Func("Afforest")
		compR := b.Imm(compA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		changedAR := b.Imm(changedA)
		one := b.Imm(1)
		tmp := b.Reg()
		emitLinkRange(b, compR, offsR, neighR, changedAR, one, tmp, lo, hi, false, 0)
		emitCompressRange(b, compR, lo, hi)
		b.Halt()
		return b.MustBuild()
	}

	inst := &MultiInstance{Name: name, Cores: cores, Mem: mm}
	for c := 0; c < cores; c++ {
		lo, hi := multiRange(n, cores, c)
		b := isa.NewBuilder(fmt.Sprintf("%s-c%d", name, c))
		b.Func("Afforest")
		compR := b.Imm(compA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		changedAR := b.Imm(changedA)
		goR := b.Imm(goA)
		zero := b.Imm(0)
		one := b.Imm(1)
		tmp := b.Reg()
		br := newBarrierRegs(b, bar, one)
		var ctrA isa.Reg
		if tech == MultiGhost {
			ctrA = b.Imm(ctrBase + int64(2*c))
		}
		var helpers []*isa.Program
		mid := (lo + hi) / 2

		passes := b.LoopBegin("cc_passes")
		top := b.HereLabel()
		switch tech {
		case MultiSMT:
			b.Spawn(0)
			emitLinkRange(b, compR, offsR, neighR, changedAR, one, tmp, lo, mid, false, 0)
			emitCompressRange(b, compR, lo, mid)
			b.JoinWait()
		case MultiGhost:
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitLinkRange(b, compR, offsR, neighR, changedAR, one, tmp, lo, hi, false, ctrA)
			b.Join()
			emitCompressRange(b, compR, lo, hi)
		default:
			emitLinkRange(b, compR, offsR, neighR, changedAR, one, tmp, lo, hi, tech == MultiSWPF, 0)
			emitCompressRange(b, compR, lo, hi)
		}
		emitBarrier(b, bar, br)
		if c == 0 {
			// The master publishes the continue flag and resets changed.
			ch := b.Reg()
			b.Load(ch, changedAR, 0)
			b.Store(goR, 0, ch)
			b.Store(changedAR, 0, zero)
		}
		emitBarrier(b, bar, br)
		gof := b.Reg()
		b.Load(gof, goR, 0)
		be := b.BGT(gof, zero, top)
		b.SetBackedge(passes, be)
		b.LoopEnd(passes)

		if c == 0 {
			b.Func("checksum")
			sum := b.Imm(0)
			nR := b.Imm(n)
			b.CountedLoop("cc_checksum", zero, nR, func(v isa.Reg) {
				ca := b.Reg()
				b.Add(ca, compR, v)
				cv := b.Reg()
				b.Load(cv, ca, 0)
				b.Add(sum, sum, cv)
			})
			outR := b.Imm(d.out)
			b.Store(outR, 0, sum)
		}
		b.Halt()
		switch tech {
		case MultiSMT:
			helpers = []*isa.Program{buildWorkerRange(c, mid, hi)}
		case MultiGhost:
			helpers = []*isa.Program{buildGhostRange(c, lo, hi)}
		}
		inst.Per = append(inst.Per, CorePrograms{Main: b.MustBuild(), Helpers: helpers})
	}
	inst.Check = checkWords(compA, wantComp, name+" comp")
	return inst
}
