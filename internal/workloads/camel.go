package workloads

import (
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/graph"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// CamelForm selects one of the three Camel shapes of the paper's
// figure 1. Camel is Ainsworth & Jones' synthetic loop [3]; the paper
// uses the three forms to show which loop characteristics favour SWPF,
// SMT parallelization, and Ghost Threading respectively.
type CamelForm int

// Camel forms.
const (
	// CamelOriginal (figure 1a): flat loop, indirect load with a very
	// high miss ratio, light address computation — SWPF's best case.
	CamelOriginal CamelForm = iota
	// CamelParallel (figure 1b): heavy address computation, almost no
	// computation with the loaded value, load mixes hits and misses —
	// SMT parallelization's best case.
	CamelParallel
	// CamelGhost (figure 1c): nested loop with a short inner trip count,
	// high-CPI load, heavy computation with the value — Ghost
	// Threading's best case (SWPF cannot prefetch across the nest).
	CamelGhost
)

// String names the form as the figures label it.
func (f CamelForm) String() string {
	switch f {
	case CamelOriginal:
		return "camel"
	case CamelParallel:
		return "camel-par"
	case CamelGhost:
		return "camel-ghost"
	}
	return fmt.Sprintf("CamelForm(%d)", int(f))
}

// camelSpec holds the sizes and layout of one built instance.
type camelSpec struct {
	form   CamelForm
	opts   Options
	rounds int // hash rounds applied to the loaded value

	n     int64 // total (inner) iterations
	m     int64 // values array length (forms a/b)
	rows  int64 // outer trip count (form c)
	inner int64 // inner trip count (form c)
	rowSz int64 // row length in words (form c)

	values   int64 // base address
	index    int64
	out      int64
	partial  int64
	mainCtr  int64
	ghostCtr int64
}

func newCamelSpec(form CamelForm, opts Options) *camelSpec {
	s := &camelSpec{form: form, opts: opts}
	eval := opts.Scale == ScaleEval
	switch form {
	case CamelOriginal:
		s.rounds = 2
		if eval {
			s.n, s.m = 1<<15, 1<<17
		} else {
			s.n, s.m = 1<<13, 1<<15
		}
	case CamelParallel:
		s.rounds = 0
		if eval {
			// The array is sized near the LLC so the load "sometimes hits
			// and sometimes misses the cache" (paper §3): prefetching has
			// little to chase, and SMT parallelization shines instead.
			s.n, s.m = 1<<15, 1<<12
		} else {
			s.n, s.m = 1<<13, 1<<10
		}
	case CamelGhost:
		s.rounds = 4
		s.inner = 128
		if eval {
			s.rows, s.rowSz = 256, 512
		} else {
			s.rows, s.rowSz = 64, 512
		}
		s.n = s.rows * s.inner
		s.m = s.rows * s.rowSz
	}
	return s
}

// NewCamel builds the requested Camel form with all variants.
func NewCamel(form CamelForm, opts Options) *Instance {
	s := newCamelSpec(form, opts)
	m := mem.New(s.m + s.n + 8192)
	h := mem.NewHeap(m)

	rng := graph.NewRNG(uint64(0xCA3E1 + int64(form)))
	values := make([]int64, s.m)
	for i := range values {
		values[i] = int64(rng.Next() >> 16)
	}
	idxLen := s.n
	idxRange := s.m
	if form == CamelGhost {
		idxLen, idxRange = s.inner, s.rowSz
	}
	index := make([]int64, idxLen+64) // padded for unguarded SWPF lookahead
	for i := 0; i < int(idxLen); i++ {
		index[i] = rng.Intn(idxRange)
	}

	s.values = h.AllocSlice(values)
	s.index = h.AllocSlice(index)
	s.out = h.Alloc(1)
	s.partial = h.Alloc(1)
	s.mainCtr = h.Alloc(1)
	s.ghostCtr = h.Alloc(1)

	// Go reference: the expected sum, mirroring the IR semantics exactly.
	var want int64
	switch form {
	case CamelOriginal:
		for i := int64(0); i < s.n; i++ {
			want += hashN(values[index[i]], s.rounds)
		}
	case CamelParallel:
		mask := s.m - 1
		for i := int64(0); i < s.n; i++ {
			want += values[hashN(i, 3)&mask]
		}
	case CamelGhost:
		for r := int64(0); r < s.rows; r++ {
			for j := int64(0); j < s.inner; j++ {
				want += hashN(values[r*s.rowSz+index[j]], s.rounds)
			}
		}
	}

	inst := &Instance{
		Name:     form.String(),
		Mem:      m,
		Counters: core.Counters{MainAddr: s.mainCtr, GhostAddr: s.ghostCtr},
		Check:    checkWord(s.out, want, form.String()+" sum"),
	}
	inst.Baseline = &Variant{Main: s.buildMain(camelBase)}
	inst.SWPF = &Variant{Main: s.buildMain(camelSWPF)}
	inst.Parallel = &Variant{
		Main:    s.buildMain(camelParMain),
		Helpers: []*isa.Program{s.buildParWorker()},
	}
	inst.Ghost = &Variant{
		Main:    s.buildMain(camelGhostMain),
		Helpers: []*isa.Program{s.buildGhost()},
	}
	return inst
}

// camelKind selects the main-program flavour.
type camelKind int

const (
	camelBase camelKind = iota
	camelSWPF
	camelParMain   // lower half + join with the worker
	camelGhostMain // full range + iteration counter + spawn/join
)

// suffix names the main program of this flavour after its workload.
func (k camelKind) suffix() string {
	return [...]string{"base", "swpf", "par", "ghostmain"}[k]
}

// buildMain emits the main program for the given flavour.
func (s *camelSpec) buildMain(kind camelKind) *isa.Program {
	b := isa.NewBuilder(s.form.String() + "-" + kind.suffix())
	b.Func("camel")
	switch s.form {
	case CamelOriginal, CamelParallel:
		s.emitFlat(b, kind)
	case CamelGhost:
		s.emitNested(b, kind)
	}
	return b.MustBuild()
}

// indexBase materialises the index array's base address, which every
// form reads but camel-par: it hashes i instead of loading index[i].
func (s *camelSpec) indexBase(b *isa.Builder) (r isa.Reg) {
	if s.form != CamelParallel {
		r = b.Imm(s.index)
	}
	return r
}

// emitFlat emits forms (a) and (b): a single loop over n iterations.
func (s *camelSpec) emitFlat(b *isa.Builder, kind camelKind) {
	sum := b.Imm(0)
	valuesR := b.Imm(s.values)
	indexR := s.indexBase(b)
	tmp := b.Reg()
	lo, hi := int64(0), s.n
	if kind == camelParMain {
		hi = s.n / 2
	}
	var one, ctrA isa.Reg
	if kind == camelGhostMain {
		one, ctrA = b.Imm(1), b.Imm(s.mainCtr)
	}
	if kind == camelGhostMain || kind == camelParMain {
		b.Spawn(0)
	}
	loR := b.Imm(lo)
	hiR := b.Imm(hi)
	b.CountedLoop("camel_loop", loR, hiR, func(i isa.Reg) {
		var aReg isa.Reg
		if s.form == CamelOriginal {
			aReg = b.Reg()
			b.Add(aReg, indexR, i)
		}
		if kind == camelSWPF {
			// prefetch values[addr(i+D)] over the padded index array
			pidx := b.Reg()
			if s.form == CamelOriginal {
				b.Load(pidx, aReg, SWPFDistance)
			} else {
				pi := b.Reg()
				b.AddI(pi, i, SWPFDistance)
				b.Mov(pidx, pi)
				emitHash(b, pidx, tmp, 3)
				b.AndI(pidx, pidx, s.m-1)
			}
			pa := b.Reg()
			b.Add(pa, valuesR, pidx)
			b.Prefetch(pa, 0)
		}
		idx := b.Reg()
		if s.form == CamelOriginal {
			b.Load(idx, aReg, 0)
		} else {
			b.Mov(idx, i)
			emitHash(b, idx, tmp, 3)
			b.AndI(idx, idx, s.m-1)
		}
		va := b.Reg()
		b.Add(va, valuesR, idx)
		v := b.Reg()
		b.Load(v, va, 0)
		b.MarkTarget()
		emitHash(b, v, tmp, s.rounds)
		b.Add(sum, sum, v)
		if kind == camelGhostMain {
			core.EmitUpdate(b, ctrA, one, tmp)
		}
	})
	switch kind {
	case camelParMain:
		b.JoinWait()
		pa := b.Imm(s.partial)
		pv := b.Reg()
		b.Load(pv, pa, 0)
		b.Add(sum, sum, pv)
	case camelGhostMain:
		b.Join()
	}
	outR := b.Imm(s.out)
	b.Store(outR, 0, sum)
	b.Halt()
}

// emitNested emits form (c): rows × inner with a 2-D indexed load.
func (s *camelSpec) emitNested(b *isa.Builder, kind camelKind) {
	sum := b.Imm(0)
	valuesR := b.Imm(s.values)
	indexR := b.Imm(s.index)
	tmp := b.Reg()
	loRow, hiRow := int64(0), s.rows
	if kind == camelParMain {
		hiRow = s.rows / 2
	}
	var one, ctrA isa.Reg
	if kind == camelGhostMain {
		one, ctrA = b.Imm(1), b.Imm(s.mainCtr)
	}
	if kind == camelGhostMain || kind == camelParMain {
		b.Spawn(0)
	}
	loR := b.Imm(loRow)
	hiR := b.Imm(hiRow)
	zero := b.Imm(0)
	innerN := b.Imm(s.inner)
	var lastJ isa.Reg
	if kind == camelSWPF {
		lastJ = b.Imm(s.inner - 1)
	}
	rowBase := b.Reg()
	b.CountedLoop("camel_outer", loR, hiR, func(r isa.Reg) {
		b.MulI(rowBase, r, s.rowSz)
		b.Add(rowBase, rowBase, valuesR)
		b.CountedLoop("camel_inner", zero, innerN, func(j isa.Reg) {
			if kind == camelSWPF {
				// SWPF can only prefetch within the short inner window
				// (this is exactly the limitation the paper describes).
				pj := b.Reg()
				b.AddI(pj, j, SWPFDistance)
				b.Min(pj, pj, lastJ)
				pa := b.Reg()
				b.Add(pa, indexR, pj)
				pidx := b.Reg()
				b.Load(pidx, pa, 0)
				pva := b.Reg()
				b.Add(pva, rowBase, pidx)
				b.Prefetch(pva, 0)
			}
			a := b.Reg()
			b.Add(a, indexR, j)
			idx := b.Reg()
			b.Load(idx, a, 0)
			va := b.Reg()
			b.Add(va, rowBase, idx)
			v := b.Reg()
			b.Load(v, va, 0)
			b.MarkTarget()
			emitHash(b, v, tmp, s.rounds)
			b.Add(sum, sum, v)
			if kind == camelGhostMain {
				core.EmitUpdate(b, ctrA, one, tmp)
			}
		})
	})
	switch kind {
	case camelParMain:
		b.JoinWait()
		pa := b.Imm(s.partial)
		pv := b.Reg()
		b.Load(pv, pa, 0)
		b.Add(sum, sum, pv)
	case camelGhostMain:
		b.Join()
	}
	outR := b.Imm(s.out)
	b.Store(outR, 0, sum)
	b.Halt()
}

// buildParWorker emits the SMT-OpenMP worker: the upper half of the
// iteration space, accumulating into the partial word.
func (s *camelSpec) buildParWorker() *isa.Program {
	b := isa.NewBuilder(s.form.String() + "-worker")
	b.Func("camel")
	sum := b.Imm(0)
	valuesR := b.Imm(s.values)
	indexR := s.indexBase(b)
	tmp := b.Reg()
	switch s.form {
	case CamelOriginal, CamelParallel:
		loR := b.Imm(s.n / 2)
		hiR := b.Imm(s.n)
		b.CountedLoop("camel_loop_w", loR, hiR, func(i isa.Reg) {
			idx := b.Reg()
			if s.form == CamelOriginal {
				a := b.Reg()
				b.Add(a, indexR, i)
				b.Load(idx, a, 0)
			} else {
				b.Mov(idx, i)
				emitHash(b, idx, tmp, 3)
				b.AndI(idx, idx, s.m-1)
			}
			va := b.Reg()
			b.Add(va, valuesR, idx)
			v := b.Reg()
			b.Load(v, va, 0)
			emitHash(b, v, tmp, s.rounds)
			b.Add(sum, sum, v)
		})
	case CamelGhost:
		loR := b.Imm(s.rows / 2)
		hiR := b.Imm(s.rows)
		zero := b.Imm(0)
		innerN := b.Imm(s.inner)
		rowBase := b.Reg()
		b.CountedLoop("camel_outer_w", loR, hiR, func(r isa.Reg) {
			b.MulI(rowBase, r, s.rowSz)
			b.Add(rowBase, rowBase, valuesR)
			b.CountedLoop("camel_inner_w", zero, innerN, func(j isa.Reg) {
				a := b.Reg()
				b.Add(a, indexR, j)
				idx := b.Reg()
				b.Load(idx, a, 0)
				va := b.Reg()
				b.Add(va, rowBase, idx)
				v := b.Reg()
				b.Load(v, va, 0)
				emitHash(b, v, tmp, s.rounds)
				b.Add(sum, sum, v)
			})
		})
	}
	pa := b.Imm(s.partial)
	b.Store(pa, 0, sum)
	b.Halt()
	return b.MustBuild()
}

// buildGhost emits the hand-extracted ghost thread: the p-slice of the
// target load (address generation + prefetch) plus the synchronization
// segment (paper figure 4(d)).
func (s *camelSpec) buildGhost() *isa.Program {
	b := isa.NewBuilder(s.form.String() + "-ghost")
	b.Func("camel")
	st := core.NewSync(b, s.opts.Sync, core.Counters{MainAddr: s.mainCtr, GhostAddr: s.ghostCtr})
	valuesR := b.Imm(s.values)
	indexR := s.indexBase(b)
	tmp := b.Reg()
	switch s.form {
	case CamelOriginal, CamelParallel:
		loR := b.Imm(0)
		hiR := b.Imm(s.n)
		b.CountedLoop("camel_loop_g", loR, hiR, func(i isa.Reg) {
			idx := b.Reg()
			if s.form == CamelOriginal {
				a := b.Reg()
				b.Add(a, indexR, i)
				b.Load(idx, a, 0)
			} else {
				b.Mov(idx, i)
				emitHash(b, idx, tmp, 3)
				b.AndI(idx, idx, s.m-1)
			}
			va := b.Reg()
			b.Add(va, valuesR, idx)
			b.Prefetch(va, 0)
			core.EmitSync(b, st, func() {
				b.AddI(i, i, st.Params.SkipStep)
				core.AdvanceLocal(b, st, st.Params.SkipStep)
			})
		})
	case CamelGhost:
		loR := b.Imm(0)
		hiR := b.Imm(s.rows)
		zero := b.Imm(0)
		innerN := b.Imm(s.inner)
		rowBase := b.Reg()
		b.CountedLoop("camel_outer_g", loR, hiR, func(r isa.Reg) {
			b.MulI(rowBase, r, s.rowSz)
			b.Add(rowBase, rowBase, valuesR)
			b.CountedLoop("camel_inner_g", zero, innerN, func(j isa.Reg) {
				a := b.Reg()
				b.Add(a, indexR, j)
				idx := b.Reg()
				b.Load(idx, a, 0)
				va := b.Reg()
				b.Add(va, rowBase, idx)
				b.Prefetch(va, 0)
				core.EmitSync(b, st, func() {
					b.AddI(j, j, st.Params.SkipStep)
					core.AdvanceLocal(b, st, st.Params.SkipStep)
				})
			})
		})
	}
	b.Halt()
	return b.MustBuild()
}
