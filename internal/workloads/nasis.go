package workloads

import (
	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// NewNASIS builds the NAS Integer Sort kernel: histogram/bucket counting
// followed by a prefix sum and a rank pass, the memory-bound core of
// NAS-IS. The hot loop increments count[key[i]] — a random
// read-modify-write with a *tiny* loop body.
//
// This workload is the paper's deliberate negative case for Ghost
// Threading: the heuristic's condition 2 (loop dynamic size > 10
// instructions per iteration) fails for the histogram loop, so no target
// loads are selected; NAS-IS cannot be parallelized without rewriting, so
// the Ghost Threading bar equals the baseline (speedup 1.00) while SWPF
// still helps (paper: 1.23×). A manual ghost variant is still built — the
// heuristic, not availability, is what rejects it.
func NewNASIS(opts Options) *Instance {
	var n, buckets int64
	if opts.Scale == ScaleEval {
		n, buckets = 1<<15, 1<<15
	} else {
		n, buckets = 1<<13, 1<<13
	}
	mm := mem.New(n + 2*buckets + 4096)
	h := mem.NewHeap(mm)

	rng := graph.NewRNG(0x15B)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Intn(buckets)
	}

	keysA := h.AllocSlice(keys)
	countA := h.Alloc(buckets)
	rankA := h.Alloc(n)
	out := h.Alloc(1)
	mainCtr := h.Alloc(1)
	ghostCtr := h.Alloc(1)

	// Go reference: counts, prefix sums, and a checksum of ranks.
	count := make([]int64, buckets)
	for _, k := range keys {
		count[k]++
	}
	prefix := make([]int64, buckets)
	acc := int64(0)
	for i := int64(0); i < buckets; i++ {
		prefix[i] = acc
		acc += count[i]
	}
	var want int64
	cursor := append([]int64(nil), prefix...)
	for i, k := range keys {
		r := cursor[k]
		cursor[k]++
		want += r ^ int64(i)
	}

	d := SWPFDistance

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder("nasis-" + kind.suffix())
		keysR := b.Imm(keysA)
		countR := b.Imm(countA)
		rankR := b.Imm(rankA)
		one := b.Imm(1)
		zero := b.Imm(0)
		nR := b.Imm(n)
		bkR := b.Imm(buckets)
		var ctrA isa.Reg
		if kind == camelGhostMain {
			ctrA = b.Imm(mainCtr)
			b.Spawn(0)
		}
		tmp := b.Reg()

		// Phase 1: histogram — the hot loop (function "count_keys"). The
		// loop iterates a pointer and bumps count[key] with a single
		// memory-increment, like x86's `inc mem`: its dynamic size is
		// tiny, which is exactly why the heuristic rejects NAS-IS
		// (condition 2, paper §6.1).
		b.Func("count_keys")
		keysEndR := b.Imm(keysA + n)
		var lastAddr isa.Reg
		if kind == camelSWPF {
			lastAddr = b.Imm(keysA + n - 1)
		}
		b.CountedLoop("is_count", keysR, keysEndR, func(ka isa.Reg) {
			if kind == camelSWPF {
				pi := b.Reg()
				b.AddI(pi, ka, d)
				b.Min(pi, pi, lastAddr)
				pk := b.Reg()
				b.Load(pk, pi, 0)
				pc := b.Reg()
				b.Add(pc, countR, pk)
				b.Prefetch(pc, 0)
			}
			k := b.Reg()
			b.Load(k, ka, 0)
			ca := b.Reg()
			b.Add(ca, countR, k)
			b.AtomicAdd(tmp, ca, 0, one)
			if kind == camelGhostMain {
				core.EmitUpdate(b, ctrA, one, tmp)
			}
		})
		if kind == camelGhostMain {
			b.Join()
		}

		// Phase 2: exclusive prefix sum over the buckets (sequential,
		// cache-friendly; converts count[] into starting ranks in place).
		b.Func("prefix_sum")
		accR := b.Imm(0)
		b.CountedLoop("is_prefix", zero, bkR, func(i isa.Reg) {
			ca := b.Reg()
			b.Add(ca, countR, i)
			c := b.Reg()
			b.Load(c, ca, 0)
			b.Store(ca, 0, accR)
			b.Add(accR, accR, c)
		})

		// Phase 3: rank assignment and checksum.
		b.Func("rank")
		sum := b.Imm(0)
		b.CountedLoop("is_rank", zero, nR, func(i isa.Reg) {
			t := b.Reg()
			b.Add(t, keysR, i)
			k := b.Reg()
			b.Load(k, t, 0)
			ca := b.Reg()
			b.Add(ca, countR, k)
			r := b.Reg()
			b.AtomicAdd(r, ca, 0, one) // cursor[k]++ (memory increment)
			b.AddI(r, r, -1)           // pre-increment rank
			ra := b.Reg()
			b.Add(ra, rankR, i)
			b.Store(ra, 0, r)
			x := b.Reg()
			b.Xor(x, r, i)
			b.Add(sum, sum, x)
		})
		outR := b.Imm(out)
		b.Store(outR, 0, sum)
		b.Halt()
		return b.MustBuild()
	}

	buildGhost := func() *isa.Program {
		b := isa.NewBuilder("nasis-ghost")
		b.Func("count_keys")
		st := core.NewSync(b, opts.Sync, core.Counters{MainAddr: mainCtr, GhostAddr: ghostCtr})
		keysR := b.Imm(keysA)
		countR := b.Imm(countA)
		keysEndR := b.Imm(keysA + n)
		b.CountedLoop("is_count_g", keysR, keysEndR, func(ka isa.Reg) {
			k := b.Reg()
			b.Load(k, ka, 0)
			ca := b.Reg()
			b.Add(ca, countR, k)
			b.Prefetch(ca, 0)
			core.EmitSync(b, st, func() {
				b.AddI(ka, ka, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
		b.Halt()
		return b.MustBuild()
	}

	return &Instance{
		Name:     "nas-is",
		Mem:      mm,
		Counters: core.Counters{MainAddr: mainCtr, GhostAddr: ghostCtr},
		Check:    checkWord(out, want, "nas-is rank checksum"),
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: nil, // requires rewriting (paper §6)
		Ghost: &Variant{
			Main:    buildMain(camelGhostMain),
			Helpers: []*isa.Program{buildGhost()},
		},
	}
}
