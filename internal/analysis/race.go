package analysis

import (
	"strconv"

	"ghostthread/internal/isa"
)

// memWrite is one reachable Store/AtomicAdd with its abstract address.
type memWrite struct {
	pc     int
	addr   Interval
	atomic bool
}

// collectWrites returns the reachable memory writes of a program with
// their abstract address intervals.
func collectWrites(pt *Patterns) []memWrite {
	p, g, v := pt.Prog, pt.G, pt.Vals
	var ws []memWrite
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op != isa.OpStore && in.Op != isa.OpAtomicAdd {
			continue
		}
		if !g.ReachablePC(pc) || !v.ReachedPC(pc) {
			continue
		}
		ws = append(ws, memWrite{pc: pc, addr: v.MemAddr(pc), atomic: in.Op == isa.OpAtomicAdd})
	}
	return ws
}

// RaceOptions configures CheckRacesOpt.
type RaceOptions struct {
	// IntervalOnly disables the symbolic may-alias oracle and compares
	// writes by interval intersection alone — the checker's original
	// behavior, kept callable so the regression suite can prove the
	// alias upgrade only ever removes findings.
	IntervalOnly bool
}

// CheckRaces lints a main program plus the helper programs it spawns for
// write-write races: while a helper may be active, every pair of writes
// that can target the same address must both be atomic. Address sets are
// established by abstract interpretation, which is how a statically
// partitioned workload (helper 0 writes [base, base+n/2), helper 1 writes
// [base+n/2, base+n)) is proved disjoint; on top of the intervals, the
// symbolic may-alias oracle (MayAlias) separates interleaved strided
// streams the interval domain cannot (helper 0 writes A[2i], helper 1
// writes A[2i+1]). Helper liveness in the main program is tracked with a
// forward may-be-active dataflow between Spawn and Join, so writes the
// main thread performs before spawning (e.g. building a hash table) are
// not flagged. relaxed downgrades findings to warnings for workloads
// whose algorithm tolerates races by design (relaxed-consistency graph
// kernels). It takes the analyses of the main program (mp) and of each
// helper (hps; nil for an absent helper).
func CheckRaces(mp *Patterns, hps []*Patterns, relaxed bool) []Finding {
	return CheckRacesOpt(mp, hps, relaxed, RaceOptions{})
}

// CheckRacesOpt is CheckRaces with explicit options.
func CheckRacesOpt(mp *Patterns, hps []*Patterns, relaxed bool, opts RaceOptions) []Finding {
	sev := SevError
	if relaxed {
		sev = SevWarn
	}
	main, g := mp.Prog, mp.G
	mainWrites := collectWrites(mp)

	// Forward may-active dataflow over the main CFG. Spawn h adds h;
	// Join (either flavor — the ISA joins the sibling context, not a
	// specific helper) clears the set.
	nb := len(g.Blocks)
	active := make([]map[int]bool, nb) // block in-states
	for i := range active {
		active[i] = map[int]bool{}
	}
	transfer := func(b int, in map[int]bool) map[int]bool {
		cur := map[int]bool{}
		for h := range in {
			cur[h] = true
		}
		for pc := g.Blocks[b].Start; pc < g.Blocks[b].End; pc++ {
			switch g.Prog.Code[pc].Op {
			case isa.OpSpawn:
				cur[int(g.Prog.Code[pc].Imm)] = true
			case isa.OpJoin:
				cur = map[int]bool{}
			}
		}
		return cur
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			for _, s := range g.Blocks[b].Succs {
				for h := range transfer(b, active[b]) {
					if !active[s][h] {
						active[s][h] = true
						changed = true
					}
				}
			}
		}
	}
	// activeAt re-walks the block to the exact pc.
	activeAt := func(pc int) map[int]bool {
		b := g.BlockOf[pc]
		cur := map[int]bool{}
		for h := range active[b] {
			cur[h] = true
		}
		for i := g.Blocks[b].Start; i < pc; i++ {
			switch g.Prog.Code[i].Op {
			case isa.OpSpawn:
				cur[int(g.Prog.Code[i].Imm)] = true
			case isa.OpJoin:
				cur = map[int]bool{}
			}
		}
		return cur
	}

	helperWrites := make([][]memWrite, len(hps))
	for h, hp := range hps {
		if hp != nil {
			helperWrites[h] = collectWrites(hp)
		}
	}

	var out []Finding
	conflict := func(a, b memWrite, pa, pb *Patterns) bool {
		if a.atomic && b.atomic {
			return false
		}
		if !opts.IntervalOnly {
			return MayAlias(pa, a.pc, pb, b.pc)
		}
		return a.addr.Intersects(b.addr)
	}
	describe := func(w memWrite) string {
		if w.addr.IsConst() {
			return "address " + strconv.FormatInt(w.addr.Lo, 10)
		}
		if w.addr.IsTop() {
			return "an unproven address"
		}
		return "addresses [" + strconv.FormatInt(w.addr.Lo, 10) + "," + strconv.FormatInt(w.addr.Hi, 10) + "]"
	}

	// Main writes vs. each possibly-active helper's writes.
	for _, mw := range mainWrites {
		for h := range activeAt(mw.pc) {
			if h < 0 || h >= len(hps) {
				continue
			}
			for _, hw := range helperWrites[h] {
				if conflict(mw, hw, mp, hps[h]) {
					out = append(out, finding("race", main, mw.pc, sev,
						"write to %s races with helper %d (%s) write at pc %d to %s; partition the range or use atomicadd",
						describe(mw), h, hps[h].Prog.Name, hw.pc, describe(hw)))
				}
			}
		}
	}

	// Helper vs. helper, when both can be active at once.
	coActive := func(h1, h2 int) bool {
		for pc := range main.Code {
			if !g.ReachablePC(pc) {
				continue
			}
			a := activeAt(pc)
			if a[h1] && a[h2] {
				return true
			}
		}
		return false
	}
	for h1 := range hps {
		for h2 := h1 + 1; h2 < len(hps); h2++ {
			if hps[h1] == nil || hps[h2] == nil || !coActive(h1, h2) {
				continue
			}
			for _, w1 := range helperWrites[h1] {
				for _, w2 := range helperWrites[h2] {
					if conflict(w1, w2, hps[h1], hps[h2]) {
						out = append(out, finding("race", hps[h1].Prog, w1.pc, sev,
							"helper %d (%s) write to %s races with helper %d (%s) write at pc %d to %s",
							h1, hps[h1].Prog.Name, describe(w1), h2, hps[h2].Prog.Name, w2.pc, describe(w2)))
					}
				}
			}
		}
	}
	return out
}
