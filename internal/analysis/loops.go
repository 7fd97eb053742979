package analysis

// NaturalLoop is a loop reconstructed from the CFG: the target of one or
// more back edges whose source the header dominates, plus every block
// that can reach a back-edge source without passing through the header.
type NaturalLoop struct {
	Header    int          // header block ID
	Blocks    map[int]bool // member block IDs (includes the header)
	Backs     []int        // back-edge source block IDs
	Parent    int          // innermost enclosing natural loop index, or -1
	Annotated int          // matching isa.Loop ID, or -1
}

// LoopForest holds the reconstructed loops plus irreducible-edge
// diagnostics (retreating edges whose target does not dominate the
// source — structured Builder output never produces them).
type LoopForest struct {
	Loops       []NaturalLoop
	Irreducible []int // source block IDs of irreducible retreating edges
	depth       []int // loop nesting depth per block (0 = not in a loop)
	inner       []int // innermost loop index per block, or -1
}

// NaturalLoops reconstructs the loop forest from back edges.
func (g *CFG) NaturalLoops(idom []int) *LoopForest {
	f := &LoopForest{
		depth: make([]int, len(g.Blocks)),
		inner: make([]int, len(g.Blocks)),
	}
	for i := range f.inner {
		f.inner[i] = -1
	}

	// Identify retreating edges. In a reducible CFG every retreating edge
	// (target earlier in a DFS) is a back edge (target dominates source).
	byHeader := map[int]*NaturalLoop{}
	var headers []int
	for _, b := range g.RPO {
		for _, s := range g.Blocks[b].Succs {
			if !Dominates(idom, s, b) {
				continue
			}
			l, ok := byHeader[s]
			if !ok {
				l = &NaturalLoop{Header: s, Blocks: map[int]bool{s: true}, Parent: -1, Annotated: -1}
				byHeader[s] = l
				headers = append(headers, s)
			}
			l.Backs = append(l.Backs, b)
			// Walk predecessors from the back-edge source to the header.
			stack := []int{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[n] {
					continue
				}
				l.Blocks[n] = true
				for _, p := range g.Blocks[n].Preds {
					if g.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Irreducible retreating edges: a successor that appears earlier in
	// RPO but does not dominate the source.
	rpoIndex := make([]int, len(g.Blocks))
	for i, b := range g.RPO {
		rpoIndex[b] = i
	}
	for _, b := range g.RPO {
		for _, s := range g.Blocks[b].Succs {
			if rpoIndex[s] <= rpoIndex[b] && !Dominates(idom, s, b) {
				f.Irreducible = append(f.Irreducible, b)
			}
		}
	}

	// Order loops outermost-first (larger loops first) so nesting depth
	// and innermost-loop assignment come out right.
	for _, h := range headers {
		f.Loops = append(f.Loops, *byHeader[h])
	}
	for i := range f.Loops {
		for j := range f.Loops {
			if i == j {
				continue
			}
			// j encloses i when j contains i's header and is larger.
			if f.Loops[j].Blocks[f.Loops[i].Header] && len(f.Loops[j].Blocks) > len(f.Loops[i].Blocks) {
				if f.Loops[i].Parent < 0 || len(f.Loops[f.Loops[i].Parent].Blocks) > len(f.Loops[j].Blocks) {
					f.Loops[i].Parent = j
				}
			}
		}
	}
	for i := range f.Loops {
		for b := range f.Loops[i].Blocks {
			f.depth[b]++
			cur := f.inner[b]
			if cur < 0 || len(f.Loops[cur].Blocks) > len(f.Loops[i].Blocks) {
				f.inner[b] = i
			}
		}
	}
	return f
}

// InnermostLoop returns the index of the innermost natural loop
// containing the block, or -1.
func (f *LoopForest) InnermostLoop(block int) int { return f.inner[block] }

// Depth returns the loop-nesting depth of the block (0 outside loops).
func (f *LoopForest) Depth(block int) int { return f.depth[block] }

// EnclosingLoops returns the indices of every natural loop containing the
// block, innermost first.
func (f *LoopForest) EnclosingLoops(block int) []int {
	var out []int
	for l := f.inner[block]; l >= 0; l = f.Loops[l].Parent {
		out = append(out, l)
	}
	return out
}

// CrossCheckLoops verifies the Builder's loop annotations against the
// reconstructed natural loops: each annotated loop with a backedge must
// correspond to a natural loop whose header lies inside the annotated
// body and whose blocks stay within [Head, End). Structured Builder
// output always passes; hand-assembled programs with stale annotations
// do not. Matching loops are recorded in NaturalLoop.Annotated of pt.F.
func CrossCheckLoops(pt *Patterns) []Finding {
	var out []Finding
	p, g, f := pt.Prog, pt.G, pt.F
	for li := range p.Loops {
		al := &p.Loops[li]
		if al.Backedge < 0 || al.Head >= al.End {
			continue // never sealed or empty: nothing to check
		}
		if !g.ReachablePC(al.Backedge) {
			out = append(out, finding("loops", p, al.Backedge, SevWarn,
				"annotated loop %d (%s): backedge is unreachable", al.ID, al.Name))
			continue
		}
		src := g.BlockOf[al.Backedge]
		target := int(p.Code[al.Backedge].Target)
		if target < al.Head || target >= al.End {
			out = append(out, finding("loops", p, al.Backedge, SevError,
				"annotated loop %d (%s): backedge targets %d outside body [%d,%d)",
				al.ID, al.Name, target, al.Head, al.End))
			continue
		}
		matched := -1
		for ni := range f.Loops {
			nl := &f.Loops[ni]
			if nl.Header != g.BlockOf[target] {
				continue
			}
			for _, b := range nl.Backs {
				if b == src {
					matched = ni
					break
				}
			}
			if matched >= 0 {
				break
			}
		}
		if matched < 0 {
			out = append(out, finding("loops", p, al.Backedge, SevError,
				"annotated loop %d (%s): backedge %d->%d is not a natural-loop back edge (target does not dominate it)",
				al.ID, al.Name, al.Backedge, target))
			continue
		}
		f.Loops[matched].Annotated = al.ID
		for b := range f.Loops[matched].Blocks {
			blk := &g.Blocks[b]
			if blk.Start < al.Head || blk.End > al.End {
				out = append(out, finding("loops", p, blk.Start, SevError,
					"annotated loop %d (%s): natural-loop block [%d,%d) escapes annotated body [%d,%d)",
					al.ID, al.Name, blk.Start, blk.End, al.Head, al.End))
			}
		}
	}
	for _, b := range f.Irreducible {
		out = append(out, finding("loops", p, g.Terminator(b), SevWarn,
			"irreducible control flow: retreating edge from block %d whose target does not dominate it", b))
	}
	return out
}
