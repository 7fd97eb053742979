package analysis

import "ghostthread/internal/isa"

// CheckGhostSafety proves that a helper (ghost) program cannot perturb
// architectural state the main thread depends on. A ghost may load and
// prefetch freely; the only memory it may *write* is its own private
// counter word (the distance-sampling trace store), and it may not spawn
// or join helpers of its own. Write addresses are established by abstract
// interpretation: a store whose address interval is not the singleton
// {ctr.Ghost} is rejected, because a ghost that can overwrite shared data
// silently corrupts the main thread instead of merely losing prefetch
// coverage. pt is the ghost's analysis.
func CheckGhostSafety(pt *Patterns, ctr CounterAddrs) []Finding {
	p, g, v := pt.Prog, pt.G, pt.Vals
	var out []Finding
	for pc := range p.Code {
		in := &p.Code[pc]
		if !g.ReachablePC(pc) || !v.ReachedPC(pc) {
			continue // cannot execute
		}
		switch in.Op {
		case isa.OpStore, isa.OpAtomicAdd:
			addr := v.MemAddr(pc)
			if addr.IsConst() && addr.Lo == ctr.Ghost {
				continue // private counter publish
			}
			what := "store"
			if in.Op == isa.OpAtomicAdd {
				what = "atomic add"
			}
			if addr.IsConst() {
				out = append(out, finding("ghost-safety", p, pc, SevError,
					"ghost %s to address %d outside its private counter word (%d)",
					what, addr.Lo, ctr.Ghost))
			} else {
				out = append(out, finding("ghost-safety", p, pc, SevError,
					"ghost %s with unproven address (abstract interval [%d,%d]); ghosts may only write their counter word",
					what, addr.Lo, addr.Hi))
			}
		case isa.OpSpawn, isa.OpJoin:
			out = append(out, finding("ghost-safety", p, pc, SevError,
				"ghost program executes %s; helpers must not manage threads", in.Op))
		}
	}
	return out
}
