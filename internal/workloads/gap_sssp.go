package workloads

import (
	"container/heap"
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

func init() { registerGAP("sssp", NewSSSP) }

// ssspINF is the unreached marker distance.
const ssspINF = int64(1) << 40

// NewSSSP builds GAP Single-Source Shortest Paths as a worklist
// (delta-stepping-like) relaxation: rounds over a frontier of active
// nodes, relaxing every outgoing edge. The hot loop scans the frontier's
// edges; the target load is dist[v] — a random access per edge.
//
// Chaotic relaxation converges to the exact shortest distances for any
// interleaving once the worklist drains, so the sequential variants are
// checked against a Go Dijkstra; the racy parallel variant can lose a
// propagation ordering (never a value), so it is checked against bounds.
func NewSSSP(graphName string, opts Options) *Instance {
	g := gapInput(graphName, opts.Scale)
	n := g.N

	mm := mem.New(gapMemWords(g, 9, 1))
	h := mem.NewHeap(mm)
	d := loadGraph(h, g)
	weightA := h.Alloc(g.Edges())
	for e := int64(0); e < g.Edges(); e++ {
		mm.StoreWord(weightA+e, graph.EdgeWeight(e))
	}
	distA := h.Alloc(n)
	inqA := h.Alloc(n)
	q1A := h.Alloc(2 * n)
	q2A := h.Alloc(2 * n)
	q3A := h.Alloc(2 * n)
	shQCount := h.Alloc(1)
	shQBase := h.Alloc(1)
	shLo := h.Alloc(1)
	shHi := h.Alloc(1)

	source := maxDegreeNode(g)
	mm.Fill(distA, n, ssspINF)
	mm.StoreWord(distA+source, 0)
	mm.StoreWord(q1A, source)

	// Reference: Dijkstra with the same weights.
	want := make([]int64, n)
	for v := range want {
		want[v] = ssspINF
	}
	want[source] = 0
	pq := &distHeap{{source, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > want[it.v] {
			continue
		}
		for i, w := range g.Neighbors(it.v) {
			e := g.Offsets[it.v] + int64(i)
			nd := it.d + graph.EdgeWeight(e)
			if nd < want[w] {
				want[w] = nd
				heap.Push(pq, distItem{w, nd})
			}
		}
	}
	var wantSum int64
	for _, dv := range want {
		wantSum += dv % (1 << 30) // keep the checksum well in range
	}

	name := "sssp." + graphName
	dPf := SWPFDistance

	// emitRound emits one frontier scan over queue entries [lo, hi).
	emitRound := func(b *isa.Builder, kind camelKind, lo, hi, qBase, nqBase, nq isa.Reg,
		distR, inqR, offsR, neighR, weightR, zero, one isa.Reg, tmp isa.Reg, ctrA isa.Reg) {
		b.CountedLoop("sssp_round", lo, hi, func(qi isa.Reg) {
			ua := b.Reg()
			b.Add(ua, qBase, qi)
			u := b.Reg()
			b.Load(u, ua, 0)
			iqa := b.Reg()
			b.Add(iqa, inqR, u)
			b.Store(iqa, 0, zero) // popped: clear the in-queue flag
			da := b.Reg()
			b.Add(da, distR, u)
			du := b.Reg()
			b.Load(du, da, 0)
			oa := b.Reg()
			b.Add(oa, offsR, u)
			s := b.Reg()
			b.Load(s, oa, 0)
			e := b.Reg()
			b.Load(e, oa, 1)
			b.CountedLoop("sssp_inner", s, e, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				if kind == camelSWPF {
					pv := b.Reg()
					b.Load(pv, na, dPf)
					ppa := b.Reg()
					b.Add(ppa, distR, pv)
					b.Prefetch(ppa, 0)
				}
				v := b.Reg()
				b.Load(v, na, 0)
				wa := b.Reg()
				b.Add(wa, weightR, ei)
				w := b.Reg()
				b.Load(w, wa, 0)
				nd := b.Reg()
				b.Add(nd, du, w)
				dva := b.Reg()
				b.Add(dva, distR, v)
				dv := b.Reg()
				b.Load(dv, dva, 0) // the target load
				b.MarkTarget()
				skip := b.NewLabel()
				b.BGE(nd, dv, skip)
				b.Store(dva, 0, nd)
				via := b.Reg()
				b.Add(via, inqR, v)
				iq := b.Reg()
				b.Load(iq, via, 0)
				b.BNE(iq, zero, skip)
				b.Store(via, 0, one)
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
		b.Func("DeltaStep")
		distR := b.Imm(distA)
		inqR := b.Imm(inqA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		weightR := b.Imm(weightA)
		zero := b.Imm(0)
		one := b.Imm(1)
		tmp := b.Reg()
		qcur := b.Imm(q1A)
		qnext := b.Imm(q2A)
		qcount := b.Imm(1)
		nq := b.Reg()
		var ctrA, shQC, shQB, shL, shH isa.Reg // set only where a helper is spawned
		switch kind {
		case camelGhostMain:
			ctrA, shQC, shQB = b.Imm(d.mainCtr), b.Imm(shQCount), b.Imm(shQBase)
		case camelParMain:
			shQB, shL, shH = b.Imm(shQBase), b.Imm(shLo), b.Imm(shHi)
		}

		rounds := b.LoopBegin("sssp_rounds")
		top := b.HereLabel()
		done := b.NewLabel()
		b.BLE(qcount, zero, done)
		b.Const(nq, 0)
		half := b.Reg()

		switch kind {
		case camelGhostMain:
			b.Store(shQC, 0, qcount)
			b.Store(shQB, 0, qcur)
			b.Store(ctrA, 0, zero)
			b.Spawn(0)
			emitRound(b, kind, zero, qcount, qcur, qnext, nq, distR, inqR, offsR, neighR, weightR, zero, one, tmp, ctrA)
			b.Join()
		case camelParMain:
			b.ShrI(half, qcount, 1)
			b.Store(shQB, 0, qcur)
			b.Store(shL, 0, half)
			b.Store(shH, 0, qcount)
			b.Spawn(0)
			emitRound(b, kind, zero, half, qcur, qnext, nq, distR, inqR, offsR, neighR, weightR, zero, one, tmp, ctrA)
			b.JoinWait()
			emitAppendWorkerQueue(b, "sssp_concat", q3A, d.partial, qnext, nq)
		default:
			emitRound(b, kind, zero, qcount, qcur, qnext, nq, distR, inqR, offsR, neighR, weightR, zero, one, tmp, ctrA)
		}

		b.Mov(tmp, qcur)
		b.Mov(qcur, qnext)
		b.Mov(qnext, tmp)
		b.Mov(qcount, nq)
		be := b.Jmp(top)
		b.SetBackedge(rounds, be)
		b.LoopEnd(rounds)
		b.Bind(done)

		b.Func("checksum")
		sum := b.Imm(0)
		nR := b.Imm(n)
		mod := b.Imm(1 << 30)
		b.CountedLoop("sssp_checksum", zero, nR, func(v isa.Reg) {
			pa := b.Reg()
			b.Add(pa, distR, v)
			pv := b.Reg()
			b.Load(pv, pa, 0)
			r := b.Reg()
			b.Rem(r, pv, mod)
			b.Add(sum, sum, r)
		})
		outR := b.Imm(d.out)
		b.Store(outR, 0, sum)
		b.Halt()
		return b.MustBuild()
	}

	buildParWorker := func() *isa.Program {
		b := isa.NewBuilder(name + "-worker")
		b.Func("DeltaStep")
		distR := b.Imm(distA)
		inqR := b.Imm(inqA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		weightR := b.Imm(weightA)
		zero := b.Imm(0)
		one := b.Imm(1)
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
		emitRound(b, camelBase, lo, hi, qBase, nqBase, nq, distR, inqR, offsR, neighR, weightR, zero, one, tmp, 0)
		pw := b.Imm(d.partial)
		b.Store(pw, 0, nq)
		b.Halt()
		return b.MustBuild()
	}

	buildGhost := func() *isa.Program {
		b := isa.NewBuilder(name + "-ghost")
		b.Func("DeltaStep")
		st := core.NewSync(b, opts.Sync, d.counters())
		distR := b.Imm(distA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		qBase := b.Reg()
		qc := b.Reg()
		shQC := b.Imm(shQCount)
		shQB := b.Imm(shQBase)
		b.Load(qc, shQC, 0)
		b.Load(qBase, shQB, 0)
		zero := b.Imm(0)
		qLast := b.Reg()
		b.AddI(qLast, qc, -1)
		b.Max(qLast, qLast, zero)
		b.CountedLoop("sssp_round_g", zero, qc, func(qi isa.Reg) {
			ua := b.Reg()
			b.Add(ua, qBase, qi)
			u := b.Reg()
			b.Load(u, ua, 0)
			// Self-accelerating offsets lookahead (see gap_bfs.go).
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
			b.CountedLoop("sssp_inner_g", s, e, func(ei isa.Reg) {
				na := b.Reg()
				b.Add(na, neighR, ei)
				v := b.Reg()
				b.Load(v, na, 0)
				dva := b.Reg()
				b.Add(dva, distR, v)
				b.Prefetch(dva, 0)
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
		Check: combineChecks(
			checkWord(d.out, wantSum, name+" dist checksum"),
			checkWords(distA, want, name+" dist"),
		),
		CheckRelaxed: func(m *mem.Memory) error {
			// The racy parallel worklist can drop a propagation ordering:
			// distances must never undershoot the true value, the source
			// must be settled, and at least 95% must be exact.
			exact := int64(0)
			for v := int64(0); v < n; v++ {
				got := m.LoadWord(distA + v)
				if got < want[v] {
					return fmt.Errorf("%s: dist[%d] = %d below true %d", name, v, got, want[v])
				}
				if got == want[v] {
					exact++
				}
			}
			if exact < n*95/100 {
				return fmt.Errorf("%s: only %d/%d distances exact", name, exact, n)
			}
			return nil
		},
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: &Variant{Main: buildMain(camelParMain), Helpers: []*isa.Program{buildParWorker()}},
		Ghost:    &Variant{Main: buildMain(camelGhostMain), Helpers: []*isa.Program{buildGhost()}},
	}
}

// distItem / distHeap implement the reference Dijkstra's priority queue.
type distItem struct {
	v, d int64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
