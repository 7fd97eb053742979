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
	fq := allocFrontierQueues(h, n)

	source := maxDegreeNode(g)
	mm.Fill(distA, n, ssspINF)
	mm.StoreWord(distA+source, 0)
	mm.StoreWord(fq.q1A, source)

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

	k := &frontierKernel{
		frontierQueues: fq, d: d, sync: opts.Sync, target: distA,
		name: name, fn: "DeltaStep", levels: "sssp_rounds", concat: "sssp_concat",
		ghostOuter: "sssp_round_g", ghostInner: "sssp_inner_g",
	}
	k.prologue = func(b *isa.Builder) frontierRegs {
		distR := b.Imm(distA)
		inqR := b.Imm(inqA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		weightR := b.Imm(weightA)
		zero := b.Imm(0)
		one := b.Imm(1)
		tmp := b.Reg()
		// emitRound emits one round: relax every edge (u, v) of a
		// frontier node u, activating v when dist[v] drops. The one the
		// driver passes is this prologue's.
		emitRound := func(kind camelKind, lo, hi, qBase, nqBase, nq, _, ctrA isa.Reg) {
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
						b.Load(pv, na, SWPFDistance)
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
		// The checksum sums dist mod 2^30, as wantSum does.
		checksum := func() {
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
		}
		return frontierRegs{zero: zero, one: one, hasOne: true, tmp: tmp, scan: emitRound, checksum: checksum}
	}

	return k.variants(&Instance{
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
	})
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
