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
	fq := allocFrontierQueues(h, n)

	source := maxDegreeNode(g)

	mm.Fill(parentA, n, -1)
	mm.StoreWord(parentA+source, source)
	mm.StoreWord(fq.q1A, source)

	wantParent, _, _ := bfsReference(g, source)

	name := "bfs." + graphName

	k := &frontierKernel{
		frontierQueues: fq, d: d, sync: opts.Sync, target: parentA,
		name: name, fn: "TDStep", levels: "bfs_levels", concat: "bfs_concat",
		ghostOuter: "bfs_tdstep_g", ghostInner: "bfs_inner_g",
	}
	k.prologue = func(b *isa.Builder) frontierRegs {
		parentR := b.Imm(parentA)
		offsR := b.Imm(d.offsets)
		neighR := b.Imm(d.neigh)
		zero := b.Imm(0)
		cnt := b.Imm(0)
		tmp := b.Reg()
		// emitTDStep emits the frontier scan: claim every unvisited
		// neighbour v of a frontier node u by writing parent[v].
		emitTDStep := func(kind camelKind, lo, hi, qBase, nqBase, nq, one, ctrA isa.Reg) {
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
						// Unguarded lookahead over the padded adjacency
						// array (the paper's manually optimized SWPF).
						pv := b.Reg()
						b.Load(pv, na, SWPFDistance)
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
		return frontierRegs{zero: zero, tmp: tmp, scan: emitTDStep, checksum: func() {
			emitChecksum(b, "bfs_checksum", zero, parentR, func() isa.Reg { return b.Imm(n) }, d.out)
		}}
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
	}
	return k.variants(inst)
}

// bfsReference runs a sequential top-down BFS from source and returns
// every node's parent and depth, -1 where unreached, and the order in
// which it visited the reached nodes. A node's parent is its first
// claimer in queue order, as in NewBFS's sequential variants.
func bfsReference(g *graph.CSR, source int64) (parent, depth, order []int64) {
	parent = make([]int64, g.N)
	depth = make([]int64, g.N)
	for v := range parent {
		parent[v], depth[v] = -1, -1
	}
	parent[source], depth[source] = source, 0
	order = []int64{source}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for _, v := range g.Neighbors(u) {
			if depth[v] < 0 {
				parent[v], depth[v] = u, depth[u]+1
				order = append(order, v)
			}
		}
	}
	return parent, depth, order
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
