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

// kind is the single-core main-program flavour whose emitters t's main
// programs share.
func (t MultiTech) kind() camelKind {
	return [...]camelKind{camelBase, camelSWPF, camelParMain, camelGhostMain}[t]
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

// coreCounters returns core c's main/ghost counter words, which sit in
// pairs from ctrBase.
func coreCounters(ctrBase int64, c int) core.Counters {
	return core.Counters{MainAddr: ctrBase + int64(2*c), GhostAddr: ctrBase + int64(2*c+1)}
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

	wantScore := prReference(g)

	name := fmt.Sprintf("pr.%s@%d-%s", graphName, cores, tech)

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
			ctrA = b.Imm(coreCounters(ctrBase, c).MainAddr)
		}
		var helpers []*isa.Program
		mid := (lo + hi) / 2
		b.CountedLoop("pr_iters", zero, iters, func(it isa.Reg) {
			emitPRContrib(b, b.Imm(lo), b.Imm(hi), scoreR, contribR, offsR)
			emitBarrier(b, bar, br)
			switch tech {
			case MultiSMT:
				b.Spawn(0)
				emitPRPull(b, tech.kind(), b.Imm(lo), b.Imm(mid), scoreR, contribR, offsR, neighR, one, tmp, 0)
				b.JoinWait()
			case MultiGhost:
				b.Store(ctrA, 0, zero)
				b.Spawn(0)
				emitPRPull(b, tech.kind(), b.Imm(lo), b.Imm(hi), scoreR, contribR, offsR, neighR, one, tmp, ctrA)
				b.Join()
			default:
				emitPRPull(b, tech.kind(), b.Imm(lo), b.Imm(hi), scoreR, contribR, offsR, neighR, one, tmp, 0)
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
			helpers = []*isa.Program{prWorker(fmt.Sprintf("%s-worker-c%d", name, c), d, scoreA, contribA, mid, hi)}
		case MultiGhost:
			helpers = []*isa.Program{prGhost(fmt.Sprintf("%s-ghost-c%d", name, c), opts.Sync, coreCounters(ctrBase, c), d, contribA, lo, hi)}
		}
		inst.Per = append(inst.Per, CorePrograms{Main: b.MustBuild(), Helpers: helpers})
	}
	inst.Check = combineChecks(
		checkWord(d.out, wordSum(wantScore), name+" score checksum"),
		checkWords(scoreA, wantScore, name+" score"),
	)
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

	wantComp := ccReference(g)

	name := fmt.Sprintf("cc.%s@%d-%s", graphName, cores, tech)

	// The SMT worker links and compresses [lo, hi). It materialises the
	// bounds once per loop where NewCC's worker shares one pair, so the
	// two workers stay separate builders over the shared emitters.
	buildWorkerRange := func(c int, lo, hi int64) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("%s-worker-c%d", name, c))
		b.Func("Afforest")
		compR := b.Imm(compA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		changedAR := b.Imm(changedA)
		one := b.Imm(1)
		tmp := b.Reg()
		emitCCLink(b, camelBase, b.Imm(lo), b.Imm(hi), compR, offsR, neighR, changedAR, one, tmp, 0)
		emitCCCompress(b, b.Imm(lo), b.Imm(hi), compR)
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
			ctrA = b.Imm(coreCounters(ctrBase, c).MainAddr)
		}
		var helpers []*isa.Program
		mid := (lo + hi) / 2

		passes := b.LoopBegin("cc_passes")
		top := b.HereLabel()
		switch tech {
		case MultiSMT:
			b.Spawn(0)
			emitCCLink(b, tech.kind(), b.Imm(lo), b.Imm(mid), compR, offsR, neighR, changedAR, one, tmp, 0)
			emitCCCompress(b, b.Imm(lo), b.Imm(mid), compR)
			b.JoinWait()
		case MultiGhost:
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitCCLink(b, tech.kind(), b.Imm(lo), b.Imm(hi), compR, offsR, neighR, changedAR, one, tmp, ctrA)
			b.Join()
			emitCCCompress(b, b.Imm(lo), b.Imm(hi), compR)
		default:
			emitCCLink(b, tech.kind(), b.Imm(lo), b.Imm(hi), compR, offsR, neighR, changedAR, one, tmp, 0)
			emitCCCompress(b, b.Imm(lo), b.Imm(hi), compR)
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
			helpers = []*isa.Program{ccGhost(fmt.Sprintf("%s-ghost-c%d", name, c), opts.Sync, coreCounters(ctrBase, c), d, compA, lo, hi)}
		}
		inst.Per = append(inst.Per, CorePrograms{Main: b.MustBuild(), Helpers: helpers})
	}
	inst.Check = combineChecks(
		checkWord(d.out, wordSum(wantComp), name+" label checksum"),
		checkWords(compA, wantComp, name+" comp"),
	)
	return inst
}
