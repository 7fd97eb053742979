package workloads

import (
	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// frontierQueues are the words a level-synchronous frontier kernel's
// variants share: three queues of 2N entries each (the racy parallel
// variant can push a node once per thread) and the words a main program
// publishes to its helper.
type frontierQueues struct {
	q1A, q2A, q3A                 int64 // current and next queue; the SMT worker's private next queue
	shQCount, shQBase, shLo, shHi int64
}

func allocFrontierQueues(h *mem.Heap, n int64) frontierQueues {
	var q frontierQueues
	q.q1A = h.Alloc(2 * n)
	q.q2A = h.Alloc(2 * n)
	q.q3A = h.Alloc(2 * n)
	q.shQCount = h.Alloc(1)
	q.shQBase = h.Alloc(1)
	q.shLo = h.Alloc(1)
	q.shHi = h.Alloc(1)
	return q
}

// frontierKernel builds the four variants of a level-synchronous
// frontier kernel, bfs or sssp: per level, scan the edges of the nodes in
// the current queue and append the nodes the scan activates to the next
// queue, until a level activates none. The level loop, the SMT split and
// its worker, and the ghost (figure 4(b) and 4(d)) are shared; a kernel
// supplies its names, the array its ghost prefetches and its prologue.
type frontierKernel struct {
	frontierQueues
	name, fn               string // workload name; the level loop's function
	levels, concat         string // loops: levels; the parallel main's queue append
	ghostOuter, ghostInner string // the ghost scan's loops
	d                      *gapData
	sync                   core.SyncParams
	target                 int64 // the array the ghost prefetches per edge
	// prologue emits the kernel's registers into a main program or an
	// SMT worker.
	prologue func(b *isa.Builder) frontierRegs
}

// frontierRegs are what a kernel's prologue hands the shared driver.
type frontierRegs struct {
	zero, tmp isa.Reg
	// one is set when the prologue materialises it; otherwise only the
	// ghost main needs it, and allocates it after the queue registers.
	one    isa.Reg
	hasOne bool
	// scan emits the edge scan over queue entries [lo, hi) at qBase,
	// appending activated nodes at nqBase[nq] and advancing nq. kind
	// camelSWPF adds prefetches; camelGhostMain publishes the per-edge
	// iteration counter at ctrA.
	scan func(kind camelKind, lo, hi, qBase, nqBase, nq, one, ctrA isa.Reg)
	// checksum emits the main program's checksum function.
	checksum func()
}

// variants fills inst's four variants.
func (k *frontierKernel) variants(inst *Instance) *Instance {
	inst.Baseline = &Variant{Main: k.buildMain(camelBase)}
	inst.SWPF = &Variant{Main: k.buildMain(camelSWPF)}
	inst.Parallel = &Variant{Main: k.buildMain(camelParMain), Helpers: []*isa.Program{k.buildWorker()}}
	inst.Ghost = &Variant{Main: k.buildMain(camelGhostMain), Helpers: []*isa.Program{k.buildGhost()}}
	return inst
}

func (k *frontierKernel) buildMain(kind camelKind) *isa.Program {
	b := isa.NewBuilder(k.name + "-" + kind.suffix())
	b.Func(k.fn)
	r := k.prologue(b)
	zero, tmp := r.zero, r.tmp
	qcur := b.Imm(k.q1A)
	qnext := b.Imm(k.q2A)
	qcount := b.Imm(1)
	nq := b.Reg()
	var ctrA, shQC, shQB, shL, shH isa.Reg // set only where a helper is spawned
	switch kind {
	case camelGhostMain:
		if !r.hasOne {
			r.one = b.Imm(1)
		}
		ctrA, shQC, shQB = b.Imm(k.d.mainCtr), b.Imm(k.shQCount), b.Imm(k.shQBase)
	case camelParMain:
		shQB, shL, shH = b.Imm(k.shQBase), b.Imm(k.shLo), b.Imm(k.shHi)
	}

	levels := b.LoopBegin(k.levels)
	top := b.HereLabel()
	done := b.NewLabel()
	b.BLE(qcount, zero, done)
	b.Const(nq, 0)
	half := b.Reg()

	switch kind {
	case camelGhostMain:
		// Publish the frontier and reset the counter, then activate
		// the ghost thread for this level (figure 4(c)).
		b.Store(shQC, 0, qcount)
		b.Store(shQB, 0, qcur)
		b.Store(ctrA, 0, zero)
		b.Spawn(0)
		r.scan(kind, zero, qcount, qcur, qnext, nq, r.one, ctrA)
		b.Join()
	case camelParMain:
		// Split the frontier with the worker: it takes [half, qcount)
		// into its private queue q3, we take [0, half) into qnext.
		b.ShrI(half, qcount, 1)
		b.Store(shQB, 0, qcur)
		b.Store(shL, 0, half)
		b.Store(shH, 0, qcount)
		b.Spawn(0)
		r.scan(kind, zero, half, qcur, qnext, nq, r.one, ctrA)
		b.JoinWait()
		emitAppendWorkerQueue(b, k.concat, k.q3A, k.d.partial, qnext, nq)
	default:
		r.scan(kind, zero, qcount, qcur, qnext, nq, r.one, ctrA)
	}

	// Swap frontier queues and continue.
	b.Mov(tmp, qcur)
	b.Mov(qcur, qnext)
	b.Mov(qnext, tmp)
	b.Mov(qcount, nq)
	be := b.Jmp(top)
	b.SetBackedge(levels, be)
	b.LoopEnd(levels)
	b.Bind(done)

	r.checksum()
	b.Halt()
	return b.MustBuild()
}

// buildWorker builds the SMT worker: one level's scan over its share of
// the frontier, into its private queue q3.
func (k *frontierKernel) buildWorker() *isa.Program {
	b := isa.NewBuilder(k.name + "-worker")
	b.Func(k.fn)
	r := k.prologue(b)
	qBase := b.Reg()
	lo := b.Reg()
	hi := b.Reg()
	shQB := b.Imm(k.shQBase)
	shL := b.Imm(k.shLo)
	shH := b.Imm(k.shHi)
	b.Load(qBase, shQB, 0)
	b.Load(lo, shL, 0)
	b.Load(hi, shH, 0)
	nqBase := b.Imm(k.q3A)
	nq := b.Imm(0)
	r.scan(camelBase, lo, hi, qBase, nqBase, nq, r.one, 0)
	pw := b.Imm(k.d.partial)
	b.Store(pw, 0, nq)
	b.Halt()
	return b.MustBuild()
}

// buildGhost builds the ghost thread: the p-slice of one level's scan
// (figure 4(b)) plus the synchronization segment (figure 4(d)).
func (k *frontierKernel) buildGhost() *isa.Program {
	b := isa.NewBuilder(k.name + "-ghost")
	b.Func(k.fn)
	st := core.NewSync(b, k.sync, k.d.counters())
	targetR := b.Imm(k.target)
	offsR := b.Imm(k.d.offsets)
	neighR := b.Imm(k.d.neigh)
	qBase := b.Reg()
	qc := b.Reg()
	shQC := b.Imm(k.shQCount)
	shQB := b.Imm(k.shQBase)
	b.Load(qc, shQC, 0)
	b.Load(qBase, shQB, 0)
	zero := b.Imm(0)
	emitGhostFrontierScan(b, st, k.ghostOuter, k.ghostInner, zero, qc, emitQLast(b, qc, zero), qBase, offsR, neighR, targetR)
	b.Halt()
	return b.MustBuild()
}

// emitQLast emits the last slot of queue entries [.., hi), clamped at 0,
// which bounds emitGhostFrontierScan's offsets lookahead.
func emitQLast(b *isa.Builder, hi, zero isa.Reg) isa.Reg {
	qLast := b.Reg()
	b.AddI(qLast, hi, -1)
	b.Max(qLast, qLast, zero)
	return qLast
}

// emitGhostFrontierScan emits a ghost's p-slice of a frontier scan over
// queue entries [lo, hi) at qBase (figure 4(b)), with outer and inner as
// its loop names: per edge (u, v), prefetch every targets[i][v] and run
// the synchronization segment st (figure 4(d)). bfs, sssp, bc and
// multi-core bfs share it.
func emitGhostFrontierScan(b *isa.Builder, st *core.SyncState, outer, inner string,
	lo, hi, qLast, qBase, offsR, neighR isa.Reg, targets ...isa.Reg) {
	b.CountedLoop(outer, lo, hi, func(qi isa.Reg) {
		ua := b.Reg()
		b.Add(ua, qBase, qi)
		u := b.Reg()
		b.Load(u, ua, 0)
		// Self-accelerating lookahead: prefetch the offsets of a node
		// a few frontier slots ahead so the ghost's own offsets loads
		// do not serialise its progress (the main thread's offsets
		// loads then hit as well, since the ghost leads it).
		fq := b.Reg()
		b.AddI(fq, qi, 8)
		b.Min(fq, fq, qLast)
		fa := b.Reg()
		b.Add(fa, qBase, fq)
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
		b.CountedLoop(inner, s, e, func(ei isa.Reg) {
			na := b.Reg()
			b.Add(na, neighR, ei)
			v := b.Reg()
			b.Load(v, na, 0)
			for _, t := range targets {
				pa := b.Reg()
				b.Add(pa, t, v)
				b.Prefetch(pa, 0)
			}
			core.EmitSync(b, st, func() {
				b.AddI(ei, ei, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
	})
}
