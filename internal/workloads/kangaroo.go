package workloads

import (
	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// NewKangaroo builds the Kangaroo benchmark (Ainsworth & Jones [3]): a
// doubly indirect access chain — sum += B[A[index[i]]] with computation on
// the result. Both A[·] and B[·] miss, and the second load depends on the
// first, so MLP within one iteration is impossible for the baseline.
//
// SWPF uses the staged indirect-prefetch scheme from [3]: prefetch
// A[index[i+2D]] and, one stage later, B[A[index[i+D]]] (the A load at
// distance D hits thanks to the first stage). This is SWPF's strongest
// workload; Ghost Threading also helps but pays SMT contention (the paper
// measures 1.86× vs 1.50× on the idle server).
//
// The paper excludes kangaroo from SMT OpenMP: "NAS-IS and kangaroo cannot
// be parallelized without rewriting the code", so Parallel is nil.
func NewKangaroo(opts Options) *Instance {
	var n, m int64
	if opts.Scale == ScaleEval {
		n, m = 1<<14, 1<<16
	} else {
		n, m = 1<<12, 1<<14
	}
	memSize := 2*m + n + 4096
	mm := mem.New(memSize)
	h := mem.NewHeap(mm)

	rng := graph.NewRNG(0x4A9A800)
	index := make([]int64, n)
	for i := range index {
		index[i] = rng.Intn(m)
	}
	a := make([]int64, m)
	for i := range a {
		a[i] = rng.Intn(m)
	}
	bv := make([]int64, m)
	for i := range bv {
		bv[i] = int64(rng.Next() >> 16)
	}

	indexA := h.AllocSlice(index)
	aA := h.AllocSlice(a)
	bA := h.AllocSlice(bv)
	out := h.Alloc(1)
	mainCtr := h.Alloc(1)
	ghostCtr := h.Alloc(1)

	const rounds = 2
	var want int64
	for i := int64(0); i < n; i++ {
		want += hashN(bv[a[index[i]]], rounds)
	}

	d := SWPFDistance

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder("kangaroo-" + kind.suffix())
		b.Func("kangaroo")
		sum := b.Imm(0)
		idxR := b.Imm(indexA)
		aR := b.Imm(aA)
		bR := b.Imm(bA)
		tmp := b.Reg()
		var one, ctrA isa.Reg
		if kind == camelGhostMain {
			one = b.Imm(1)
			ctrA = b.Imm(mainCtr)
			b.Spawn(0)
		}
		lo := b.Imm(0)
		hi := b.Imm(n)
		var last isa.Reg
		if kind == camelSWPF {
			last = b.Imm(n - 1)
		}
		b.CountedLoop("kangaroo_loop", lo, hi, func(i isa.Reg) {
			if kind == camelSWPF {
				// Stage 1: prefetch A[index[i+2D]].
				p2 := b.Reg()
				b.AddI(p2, i, 2*d)
				b.Min(p2, p2, last)
				t := b.Reg()
				b.Add(t, idxR, p2)
				ix2 := b.Reg()
				b.Load(ix2, t, 0)
				pa2 := b.Reg()
				b.Add(pa2, aR, ix2)
				b.Prefetch(pa2, 0)
				// Stage 2: prefetch B[A[index[i+D]]] (A hits by now).
				p1 := b.Reg()
				b.AddI(p1, i, d)
				b.Min(p1, p1, last)
				b.Add(t, idxR, p1)
				ix1 := b.Reg()
				b.Load(ix1, t, 0)
				b.Add(pa2, aR, ix1)
				av := b.Reg()
				b.Load(av, pa2, 0)
				pb := b.Reg()
				b.Add(pb, bR, av)
				b.Prefetch(pb, 0)
			}
			t := b.Reg()
			b.Add(t, idxR, i)
			ix := b.Reg()
			b.Load(ix, t, 0)
			aa := b.Reg()
			b.Add(aa, aR, ix)
			av := b.Reg()
			b.Load(av, aa, 0)
			b.MarkTarget()
			ba := b.Reg()
			b.Add(ba, bR, av)
			v := b.Reg()
			b.Load(v, ba, 0)
			b.MarkTarget()
			emitHash(b, v, tmp, rounds)
			b.Add(sum, sum, v)
			if kind == camelGhostMain {
				core.EmitUpdate(b, ctrA, one, tmp)
			}
		})
		if kind == camelGhostMain {
			b.Join()
		}
		outR := b.Imm(out)
		b.Store(outR, 0, sum)
		b.Halt()
		return b.MustBuild()
	}

	buildGhost := func() *isa.Program {
		b := isa.NewBuilder("kangaroo-ghost")
		b.Func("kangaroo")
		st := core.NewSync(b, opts.Sync, core.Counters{MainAddr: mainCtr, GhostAddr: ghostCtr})
		idxR := b.Imm(indexA)
		aR := b.Imm(aA)
		bR := b.Imm(bA)
		lo := b.Imm(0)
		hi := b.Imm(n)
		b.CountedLoop("kangaroo_loop_g", lo, hi, func(i isa.Reg) {
			t := b.Reg()
			b.Add(t, idxR, i)
			ix := b.Reg()
			b.Load(ix, t, 0)
			aa := b.Reg()
			b.Add(aa, aR, ix)
			av := b.Reg()
			b.Load(av, aa, 0) // the ghost must load A to compute B's address
			ba := b.Reg()
			b.Add(ba, bR, av)
			b.Prefetch(ba, 0)
			core.EmitSync(b, st, func() {
				b.AddI(i, i, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
		b.Halt()
		return b.MustBuild()
	}

	return &Instance{
		Name:     "kangaroo",
		Mem:      mm,
		Counters: core.Counters{MainAddr: mainCtr, GhostAddr: ghostCtr},
		Check:    checkWord(out, want, "kangaroo sum"),
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: nil, // requires rewriting (paper §6)
		Ghost: &Variant{
			Main:    buildMain(camelGhostMain),
			Helpers: []*isa.Program{buildGhost()},
		},
	}
}
