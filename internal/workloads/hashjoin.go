package workloads

import (
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// NewHashJoin builds the database hash-join benchmark: build a hash table
// over relation R, then probe it with relation S. hashRounds distinguishes
// hj2 (2 hash rounds per key) from hj8 (8 rounds): hj8 performs more
// computation per cache-missing probe, which (per the paper's §3
// analysis) favours Ghost Threading.
//
// The probe loop's first table access — key slot table[2h] — is the
// target load. The table uses open addressing with linear probing and
// interleaved key/payload words so one line fill serves both.
//
// The Parallel variant is the "partially parallelized version that does
// not require code rewriting" the paper evaluates: the build phase stays
// sequential and only the probe loop is split across the SMT contexts.
func NewHashJoin(hashRounds int, opts Options) *Instance {
	var rN, sN int64
	if opts.Scale == ScaleEval {
		rN, sN = 1<<13, 1<<14
	} else {
		rN, sN = 1<<11, 1<<12
	}
	slots := 2 * rN // fill factor 0.5
	mask := slots - 1

	mm := mem.New(rN*2 + sN + slots*2 + 4096)
	h := mem.NewHeap(mm)

	rng := graph.NewRNG(uint64(0x6A01 + hashRounds))
	rkey := make([]int64, rN)
	rpay := make([]int64, rN)
	for i := range rkey {
		rkey[i] = rng.Intn(1<<40) + 1 // nonzero keys: 0 marks empty slots
		rpay[i] = int64(rng.Next() >> 20)
	}
	skey := make([]int64, sN)
	for i := range skey {
		if rng.Intn(2) == 0 {
			skey[i] = rkey[rng.Intn(rN)]
		} else {
			skey[i] = rng.Intn(1<<40) + 1
		}
	}

	rkeyA := h.AllocSlice(rkey)
	rpayA := h.AllocSlice(rpay)
	skeyA := h.AllocSlice(skey)
	tableA := h.Alloc(slots * 2) // interleaved [key, payload] pairs
	outSum := h.Alloc(1)
	outMatch := h.Alloc(1)
	partialSum := h.Alloc(1)
	partialMatch := h.Alloc(1)
	mainCtr := h.Alloc(1)
	ghostCtr := h.Alloc(1)

	// Go reference: identical build + probe.
	table := make([]int64, slots*2)
	for i := int64(0); i < rN; i++ {
		hh := hashN(rkey[i], hashRounds) & mask
		for table[2*hh] != 0 {
			hh = (hh + 1) & mask
		}
		table[2*hh] = rkey[i]
		table[2*hh+1] = rpay[i]
	}
	probeRef := func(lo, hi int64) (sum, matches int64) {
		for i := lo; i < hi; i++ {
			k := skey[i]
			hh := hashN(k, hashRounds) & mask
			for {
				tk := table[2*hh]
				if tk == k {
					sum += hashN(table[2*hh+1], hashRounds)
					matches++
					break
				}
				if tk == 0 {
					break
				}
				hh = (hh + 1) & mask
			}
		}
		return
	}
	wantSum, wantMatch := probeRef(0, sN)

	name := fmt.Sprintf("hj%d", hashRounds)
	d := SWPFDistance

	// emitBuild emits the sequential build phase; withCounter publishes
	// the per-insert iteration count for the build-phase ghost.
	emitBuild := func(b *isa.Builder, withCounter bool, ctrA, one isa.Reg) {
		b.Func("build")
		rkeyR := b.Imm(rkeyA)
		rpayR := b.Imm(rpayA)
		tableR := b.Imm(tableA)
		zero := b.Imm(0)
		nR := b.Imm(rN)
		tmp := b.Reg()
		b.CountedLoop("hj_build", zero, nR, func(i isa.Reg) {
			t := b.Reg()
			b.Add(t, rkeyR, i)
			k := b.Reg()
			b.Load(k, t, 0)
			hh := b.Reg()
			b.Mov(hh, k)
			emitHash(b, hh, tmp, hashRounds)
			b.AndI(hh, hh, mask)
			slot := b.Reg()
			probeID := b.LoopBegin("hj_build_probe")
			probe := b.HereLabel()
			b.ShlI(slot, hh, 1)
			b.Add(slot, slot, tableR)
			tk := b.Reg()
			b.Load(tk, slot, 0)
			done := b.NewLabel()
			b.BEQ(tk, zero, done)
			b.AddI(hh, hh, 1)
			b.AndI(hh, hh, mask)
			be := b.Jmp(probe)
			b.SetBackedge(probeID, be)
			b.LoopEnd(probeID)
			b.Bind(done)
			b.Store(slot, 0, k)
			pv := b.Reg()
			b.Add(pv, rpayR, i)
			v := b.Reg()
			b.Load(v, pv, 0)
			b.Store(slot, 1, v)
			if withCounter {
				core.EmitUpdate(b, ctrA, one, tmp)
			}
		})
	}

	// emitProbe emits the probe loop over [lo, hi), accumulating into the
	// given registers. withPrefetch inserts SWPF; ctr, when valid, emits
	// the ghost counter update.
	emitProbe := func(b *isa.Builder, loopName string, lo, hi int64, sum, matches isa.Reg, withPrefetch, withCounter bool, ctrA, one isa.Reg) {
		skeyR := b.Imm(skeyA)
		tableR := b.Imm(tableA)
		zero := b.Imm(0)
		loR := b.Imm(lo)
		hiR := b.Imm(hi)
		tmp := b.Reg()
		var last isa.Reg
		if withPrefetch {
			last = b.Imm(sN - 1)
		}
		b.CountedLoop(loopName, loR, hiR, func(i isa.Reg) {
			if withPrefetch {
				pi := b.Reg()
				b.AddI(pi, i, d)
				b.Min(pi, pi, last)
				t := b.Reg()
				b.Add(t, skeyR, pi)
				pk := b.Reg()
				b.Load(pk, t, 0)
				ph := b.Reg()
				b.Mov(ph, pk)
				emitHash(b, ph, tmp, hashRounds)
				b.AndI(ph, ph, mask)
				b.ShlI(ph, ph, 1)
				b.Add(ph, ph, tableR)
				b.Prefetch(ph, 0)
			}
			t := b.Reg()
			b.Add(t, skeyR, i)
			k := b.Reg()
			b.Load(k, t, 0)
			hh := b.Reg()
			b.Mov(hh, k)
			emitHash(b, hh, tmp, hashRounds)
			b.AndI(hh, hh, mask)
			slot := b.Reg()
			tk := b.Reg()
			probeID := b.LoopBegin(loopName + "_chain")
			probe := b.HereLabel()
			b.ShlI(slot, hh, 1)
			b.Add(slot, slot, tableR)
			b.Load(tk, slot, 0)
			b.MarkTarget()
			hit := b.NewLabel()
			miss := b.NewLabel()
			b.BEQ(tk, k, hit)
			b.BEQ(tk, zero, miss)
			b.AddI(hh, hh, 1)
			b.AndI(hh, hh, mask)
			be := b.Jmp(probe)
			b.SetBackedge(probeID, be)
			b.LoopEnd(probeID)
			b.Bind(hit)
			pv := b.Reg()
			b.Load(pv, slot, 1)
			// Aggregate computation with the loaded payload — the "more
			// computation performed with the value loaded" that makes
			// hash joins favour Ghost Threading (paper §3).
			emitHash(b, pv, tmp, hashRounds)
			b.Add(sum, sum, pv)
			b.AddI(matches, matches, 1)
			b.Bind(miss)
			if withCounter {
				core.EmitUpdate(b, ctrA, one, tmp)
			}
		})
	}

	buildMain := func(kind camelKind) *isa.Program {
		b := isa.NewBuilder(name + "-" + kind.suffix())
		var ctrA, one isa.Reg
		if kind == camelGhostMain {
			one = b.Imm(1)
			ctrA = b.Imm(mainCtr)
			zero := b.Imm(0)
			b.Store(ctrA, 0, zero)
			b.Spawn(1) // the build-phase ghost
			emitBuild(b, true, ctrA, one)
			b.Join()
			b.Store(ctrA, 0, zero)
		} else {
			emitBuild(b, false, 0, 0)
		}
		b.Func("probe")
		sum := b.Imm(0)
		matches := b.Imm(0)
		if kind == camelGhostMain {
			b.Spawn(0)
		}
		if kind == camelParMain {
			b.Spawn(0)
		}
		hi := sN
		if kind == camelParMain {
			hi = sN / 2
		}
		emitProbe(b, "hj_probe", 0, hi, sum, matches, kind == camelSWPF, kind == camelGhostMain, ctrA, one)
		switch kind {
		case camelParMain:
			b.JoinWait()
			pa := b.Imm(partialSum)
			pv := b.Reg()
			b.Load(pv, pa, 0)
			b.Add(sum, sum, pv)
			pm := b.Imm(partialMatch)
			b.Load(pv, pm, 0)
			b.Add(matches, matches, pv)
		case camelGhostMain:
			b.Join()
		}
		oS := b.Imm(outSum)
		b.Store(oS, 0, sum)
		oM := b.Imm(outMatch)
		b.Store(oM, 0, matches)
		b.Halt()
		return b.MustBuild()
	}

	buildParWorker := func() *isa.Program {
		b := isa.NewBuilder(name + "-worker")
		b.Func("probe")
		sum := b.Imm(0)
		matches := b.Imm(0)
		emitProbe(b, "hj_probe_w", sN/2, sN, sum, matches, false, false, 0, 0)
		pa := b.Imm(partialSum)
		b.Store(pa, 0, sum)
		pm := b.Imm(partialMatch)
		b.Store(pm, 0, matches)
		b.Halt()
		return b.MustBuild()
	}

	buildBuildGhost := func() *isa.Program {
		b := isa.NewBuilder(name + "-build-ghost")
		b.Func("build")
		st := core.NewSync(b, opts.Sync, core.Counters{MainAddr: mainCtr, GhostAddr: ghostCtr})
		rkeyR := b.Imm(rkeyA)
		tableR := b.Imm(tableA)
		zero := b.Imm(0)
		nR := b.Imm(rN)
		tmp := b.Reg()
		b.CountedLoop("hj_build_g", zero, nR, func(i isa.Reg) {
			t := b.Reg()
			b.Add(t, rkeyR, i)
			k := b.Reg()
			b.Load(k, t, 0)
			hh := b.Reg()
			b.Mov(hh, k)
			emitHash(b, hh, tmp, hashRounds)
			b.AndI(hh, hh, mask)
			b.ShlI(hh, hh, 1)
			b.Add(hh, hh, tableR)
			// Only the chain head: a speculative next-line prefetch here
			// would cover spilled chains but issues addresses the insert
			// scan never touches, which the shadow oracle flags divergent.
			b.Prefetch(hh, 0)
			core.EmitSync(b, st, func() {
				b.AddI(i, i, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
		b.Halt()
		return b.MustBuild()
	}

	buildGhost := func() *isa.Program {
		b := isa.NewBuilder(name + "-ghost")
		b.Func("probe")
		st := core.NewSync(b, opts.Sync, core.Counters{MainAddr: mainCtr, GhostAddr: ghostCtr})
		skeyR := b.Imm(skeyA)
		tableR := b.Imm(tableA)
		zero := b.Imm(0)
		nR := b.Imm(sN)
		tmp := b.Reg()
		b.CountedLoop("hj_probe_g", zero, nR, func(i isa.Reg) {
			t := b.Reg()
			b.Add(t, skeyR, i)
			k := b.Reg()
			b.Load(k, t, 0)
			hh := b.Reg()
			b.Mov(hh, k)
			emitHash(b, hh, tmp, hashRounds)
			b.AndI(hh, hh, mask)
			b.ShlI(hh, hh, 1)
			b.Add(hh, hh, tableR)
			// The chain head only. Fetching the following line as well
			// (for chains spilling across a line boundary) costs little,
			// but at fill factor 0.5 most chains never spill, so those
			// speculative lines are off the demand stream — the shadow
			// oracle (cpu/shadow.go) flags them divergent. Precision wins:
			// the p-slice must replay the main thread's address stream.
			b.Prefetch(hh, 0)
			core.EmitSync(b, st, func() {
				b.AddI(i, i, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
		b.Halt()
		return b.MustBuild()
	}

	return &Instance{
		Name:     name,
		Mem:      mm,
		Counters: core.Counters{MainAddr: mainCtr, GhostAddr: ghostCtr},
		Check: combineChecks(
			checkWord(outSum, wantSum, name+" sum"),
			checkWord(outMatch, wantMatch, name+" matches"),
		),
		Baseline: &Variant{Main: buildMain(camelBase)},
		SWPF:     &Variant{Main: buildMain(camelSWPF)},
		Parallel: &Variant{
			Main:    buildMain(camelParMain),
			Helpers: []*isa.Program{buildParWorker()},
		},
		Ghost: &Variant{
			Main:    buildMain(camelGhostMain),
			Helpers: []*isa.Program{buildGhost(), buildBuildGhost()},
		},
	}
}
