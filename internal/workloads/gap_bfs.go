package workloads

import (
	"fmt"
	"slices"

	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

func init() { registerGAP("bfs", NewBFS) }

// NewBFS builds GAP Breadth-First Search (top-down direction; the paper's
// running example, figure 4). The hot loop is TDStep: for every node u in
// the frontier, scan its neighbours v and claim unvisited ones by writing
// parent[v]. The target load is parent[v] — a random access per edge.
//
// Initialization (parent = -1, frontier = {source}) is pre-set in the
// memory image, matching the paper's methodology of excluding init
// functions from timing.
func NewBFS(graphName string, opts Options) *Instance {
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 6, 0))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	parentA := h.Alloc(n)
	q1A := h.Alloc(2 * n) // 2N capacity: the racy parallel variant can
	q2A := h.Alloc(2 * n) // push a node once per thread
	q3A := h.Alloc(2 * n) // worker-private next queue
	shQCount := h.Alloc(1)
	shQBase := h.Alloc(1)
	shLo := h.Alloc(1)
	shHi := h.Alloc(1)

	source := maxDegreeNode(g)

	initMem := func() {
		mm.Fill(parentA, n, -1)
		mm.StoreWord(parentA+source, source)
		mm.StoreWord(q1A, source)
	}
	initMem()

	wantParent, _ := bfsReference(g, source)

	name := "bfs." + graphName
	dPf := SWPFDistance

	// emitTDStep emits the frontier scan over queue entries [lo, hi)
	// reading from qBase, appending to nqBase with counter register nq.
	// kind camelSWPF inserts prefetches; camelGhostMain publishes the
	// per-edge iteration counter.
	emitTDStep := func(b *isa.Builder, kind camelKind, lo, hi, qBase, nqBase, nq isa.Reg,
		parentR, offsR, neighR, zero, tmp, ctrA, one, cnt isa.Reg) {
		b.CountedLoop("bfs_tdstep", lo, hi, func(qi isa.Reg) {
			ua := b.Reg()
			b.Add(ua, qBase, qi)
			u := b.Reg()
			b.Load(u, ua, 0)
			oa := b.Reg()
			b.Add(oa, offsR, u)
			s := b.Reg()
			b.Load(s, oa, 0)
			e := b.Reg()
			b.Load(e, oa, 1)
			b.CountedLoop("bfs_inner", s, e, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				if kind == camelSWPF {
					// Unguarded lookahead over the padded adjacency array
					// (the paper's manually optimized SWPF).
					pv := b.Reg()
					b.Load(pv, na, dPf)
					ppa := b.Reg()
					b.Add(ppa, parentR, pv)
					b.Prefetch(ppa, 0)
				}
				v := b.Reg()
				b.Load(v, na, 0)
				pa := b.Reg()
				b.Add(pa, parentR, v)
				pv := b.Reg()
				b.Load(pv, pa, 0) // curr_val = parent[v] (figure 4(a) line 5)
				b.MarkTarget()
				skip := b.NewLabel()
				b.BGE(pv, zero, skip)
				b.Sub(cnt, cnt, pv) // count += -curr_val (figure 4(a) line 7)
				b.Store(pa, 0, u)
				qa := b.Reg()
				b.Add(qa, nqBase, nq)
				b.Store(qa, 0, v)
				b.AddI(nq, nq, 1)
				b.Bind(skip)
				if kind == camelGhostMain {
					core.EmitUpdate(b, ctrA, one, tmp)
				}
			})
		})
	}

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder(name + "-" + [...]string{"base", "swpf", "par", "ghostmain"}[kind])
		b.Func("TDStep")
		parentR := b.Imm(parentA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		cnt := b.Imm(0)
		tmp := b.Reg()
		qcur := b.Imm(q1A)
		qnext := b.Imm(q2A)
		qcount := b.Imm(1)
		nq := b.Reg()
		var one, ctrA, shQC, shQB, shL, shH isa.Reg // set only where a helper is spawned
		switch kind {
		case camelGhostMain:
			one, ctrA, shQC, shQB = b.Imm(1), b.Imm(d.mainCtr), b.Imm(shQCount), b.Imm(shQBase)
		case camelParMain:
			shQB, shL, shH = b.Imm(shQBase), b.Imm(shLo), b.Imm(shHi)
		}

		levels := b.LoopBegin("bfs_levels")
		levelTop := b.HereLabel()
		done := b.NewLabel()
		b.BLE(qcount, zero, done)
		b.Const(nq, 0)
		half := b.Reg()

		switch kind {
		case camelGhostMain:
			// Publish the frontier and reset the counter, then activate
			// the ghost thread for this TDStep (figure 4(c)).
			b.Store(shQC, 0, qcount)
			b.Store(shQB, 0, qcur)
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitTDStep(b, kind, zero, qcount, qcur, qnext, nq, parentR, offsR, neighR, zero, tmp, ctrA, one, cnt)
			b.Join()
		case camelParMain:
			// Split the frontier with the worker: it takes [half, qcount)
			// into its private queue q3, we take [0, half) into qnext.
			b.ShrI(half, qcount, 1)
			b.Store(shQB, 0, qcur)
			b.Store(shL, 0, half)
			b.Store(shH, 0, qcount)
			b.Spawn(0)
			emitTDStep(b, kind, zero, half, qcur, qnext, nq, parentR, offsR, neighR, zero, tmp, ctrA, one, cnt)
			b.JoinWait()
			emitAppendWorkerQueue(b, "bfs_concat", q3A, d.partial, qnext, nq)
		default:
			emitTDStep(b, kind, zero, qcount, qcur, qnext, nq, parentR, offsR, neighR, zero, tmp, ctrA, one, cnt)
		}

		// Swap frontier queues and continue.
		b.Mov(tmp, qcur)
		b.Mov(qcur, qnext)
		b.Mov(qnext, tmp)
		b.Mov(qcount, nq)
		be := b.Jmp(levelTop)
		b.SetBackedge(levels, be)
		b.LoopEnd(levels)
		b.Bind(done)

		// Checksum of the parent array.
		b.Func("checksum")
		sum := b.Imm(0)
		nR := b.Imm(n)
		b.CountedLoop("bfs_checksum", zero, nR, func(v isa.Reg) {
			pa := b.Reg()
			b.Add(pa, parentR, v)
			pv := b.Reg()
			b.Load(pv, pa, 0)
			b.Add(sum, sum, pv)
		})
		outR := b.Imm(d.out)
		b.Store(outR, 0, sum)
		b.Halt()
		return b.MustBuild()
	}

	// The parallel worker: one TDStep over its share of the frontier.
	buildParWorker := func() *isa.Program {
		b := isa.NewBuilder(name + "-worker")
		b.Func("TDStep")
		parentR := b.Imm(parentA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		cnt := b.Imm(0)
		tmp := b.Reg()
		qBase := b.Reg()
		lo := b.Reg()
		hi := b.Reg()
		shQB := b.Imm(shQBase)
		shL := b.Imm(shLo)
		shH := b.Imm(shHi)
		b.Load(qBase, shQB, 0)
		b.Load(lo, shL, 0)
		b.Load(hi, shH, 0)
		nqBase := b.Imm(q3A)
		nq := b.Imm(0)
		emitTDStep(b, camelBase, lo, hi, qBase, nqBase, nq, parentR, offsR, neighR, zero, tmp, 0, 0, cnt)
		pw := b.Imm(d.partial)
		b.Store(pw, 0, nq)
		b.Halt()
		return b.MustBuild()
	}

	// The ghost thread: the p-slice of TDStep (figure 4(b)) plus the
	// synchronization segment (figure 4(d)).
	buildGhost := func() *isa.Program {
		b := isa.NewBuilder(name + "-ghost")
		b.Func("TDStep")
		st := core.NewSync(b, opts.Sync, d.counters())
		parentR := b.Imm(parentA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		qBase := b.Reg()
		qc := b.Reg()
		shQC := b.Imm(shQCount)
		shQB := b.Imm(shQBase)
		b.Load(qc, shQC, 0)
		b.Load(qBase, shQB, 0)
		zero := b.Imm(0)
		emitBFSGhostScan(b, st, zero, qc, zero, qBase, offsR, neighR, parentR)
		b.Halt()
		return b.MustBuild()
	}

	inst := &Instance{
		Name:     name,
		Mem:      mm,
		Counters: d.counters(),
		Check: combineChecks(
			checkWord(d.out, wordSum(wantParent), name+" parent checksum"),
			checkWords(parentA, wantParent, name+" parent"),
		),
		CheckRelaxed: combineChecks(
			// The racy parallel TDStep may pick different (valid)
			// parents: check the reached set matches and every parent
			// edge exists.
			func(m *mem.Memory) error {
				for v := int64(0); v < n; v++ {
					if p := m.LoadWord(parentA + v); (p >= 0) != (wantParent[v] >= 0) {
						return fmt.Errorf("%s: node %d reached=%v, want %v", name, v, p >= 0, wantParent[v] >= 0)
					}
				}
				return nil
			},
			checkParentEdges(g, parentA, source, wantParent, name),
		),
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: &Variant{Main: buildMain(camelParMain), Helpers: []*isa.Program{buildParWorker()}},
		Ghost:    &Variant{Main: buildMain(camelGhostMain), Helpers: []*isa.Program{buildGhost()}},
	}
	return inst
}

// bfsReference runs a sequential top-down BFS from source and returns
// every node's parent and depth, -1 where unreached. A node's parent is
// its first claimer in queue order, as in NewBFS's sequential variants.
func bfsReference(g *graph.CSR, source int64) (parent, depth []int64) {
	parent = make([]int64, g.N)
	depth = make([]int64, g.N)
	for v := range parent {
		parent[v], depth[v] = -1, -1
	}
	parent[source], depth[source] = source, 0
	queue := []int64{source}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g.Neighbors(u) {
			if depth[v] < 0 {
				parent[v], depth[v] = u, depth[u]+1
				queue = append(queue, v)
			}
		}
	}
	return parent, depth
}

// checkParentEdges returns a Check that every node the reference reaches
// (want[v] >= 0), source aside, has a parent adjacent to it: racy and
// multi-core claims may pick any parent one level up.
func checkParentEdges(g *graph.CSR, parentA, source int64, want []int64, name string) func(m *mem.Memory) error {
	return func(m *mem.Memory) error {
		for v := int64(0); v < g.N; v++ {
			if v == source || want[v] < 0 {
				continue
			}
			p := m.LoadWord(parentA + v)
			if !slices.Contains(g.Neighbors(v), p) {
				return fmt.Errorf("%s: node %d has non-adjacent parent %d", name, v, p)
			}
		}
		return nil
	}
}

// emitBFSGhostScan emits the ghost's p-slice of a frontier scan over
// queue entries [lo, hi) at qBase (figure 4(b)): per edge, prefetch
// targetR[v] and run the synchronization segment st (figure 4(d)).
func emitBFSGhostScan(b *isa.Builder, st *core.SyncState, lo, hi, zero, qBase, offsR, neighR, targetR isa.Reg) {
	qLast := b.Reg()
	b.AddI(qLast, hi, -1)
	b.Max(qLast, qLast, zero)
	b.CountedLoop("bfs_tdstep_g", lo, hi, func(qi isa.Reg) {
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
		b.CountedLoop("bfs_inner_g", s, e, func(ei isa.Reg) {
			na := b.Reg()
			b.Add(na, neighR, ei)
			v := b.Reg()
			b.Load(v, na, 0)
			pa := b.Reg()
			b.Add(pa, targetR, v)
			b.Prefetch(pa, 0)
			core.EmitSync(b, st, func() {
				b.AddI(ei, ei, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
	})
}
