package analysis

import (
	"encoding/json"
	"fmt"
	"sort"

	"ghostthread/internal/isa"
)

// transval.go — translation validation of p-slices. For every spawn site
// of a ghost helper, the validator proves (or refutes) that each prefetch
// the helper issues computes the same address expression as a prefetch
// target in the main thread's spawned region, modulo:
//
//   - sync-skip instructions (the !skip catch-up updates the sync segment
//     inserts, which advance the ghost's induction state past iterations
//     the main thread has already consumed), and
//   - documented speculation points (ghost loads whose value the main
//     thread may concurrently overwrite in the region — the ghost reads a
//     possibly-stale value, which can misdirect but not corrupt, since
//     prefetches have no architectural effect).
//
// Proof obligations are discharged purely symbolically: both programs are
// renamed into pruned SSA, one abstract iteration of every loop is
// evaluated into a canonical affine expression (symexec.go), the ghost's
// expression is rewritten into main-thread space (spawn-time register
// values, published memory words), and the two canonical forms are
// compared. Matched loops of the two programs share iteration-counter
// labels, so induction variables cancel exactly.

// VerdictStatus classifies one proof attempt.
type VerdictStatus int

// Verdict statuses, ordered from strongest to weakest.
const (
	// Proved: the ghost address expression is syntactically identical to
	// the main thread's target address (up to a constant lead).
	Proved VerdictStatus = iota
	// ProvedModuloSync: identical under the sync-skip erasure relation
	// and/or modulo documented speculation points.
	ProvedModuloSync
	// Unproved: the expressions differ; the verdict carries a minimal
	// counterexample path.
	Unproved
)

// String names the status in gtverify's output vocabulary.
func (s VerdictStatus) String() string {
	switch s {
	case Proved:
		return "PROVED"
	case ProvedModuloSync:
		return "PROVED-MODULO-SYNC"
	}
	return "UNPROVED"
}

// MarshalJSON emits the status as its string form.
func (s VerdictStatus) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the string form.
func (s *VerdictStatus) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	switch str {
	case "PROVED":
		*s = Proved
	case "PROVED-MODULO-SYNC":
		*s = ProvedModuloSync
	case "UNPROVED":
		*s = Unproved
	default:
		return fmt.Errorf("transval: unknown verdict status %q", str)
	}
	return nil
}

// SpecPoint documents one speculation point: a ghost load whose value a
// main-thread store in the spawned region may overwrite concurrently.
type SpecPoint struct {
	GhostLoadPC int `json:"ghost_load_pc"`
	MainStorePC int `json:"main_store_pc"`
}

// TargetVerdict is the proof result for one prefetch target.
type TargetVerdict struct {
	TargetPC int           `json:"target_pc"`
	GhostPC  int           `json:"ghost_pc"` // matched prefetch, -1 when unproved
	Status   VerdictStatus `json:"status"`
	Lead     int64         `json:"lead,omitempty"` // constant address lead of the match
	SkipPCs  []int         `json:"skip_pcs,omitempty"`
	Spec     []SpecPoint   `json:"speculation,omitempty"`
	// Implicit marks an obligation synthesized from an unannotated region
	// memory access (regions with no FlagTargetLoad loads).
	Implicit bool `json:"implicit,omitempty"`
	// ViaLoad marks a match against a ghost load rather than a prefetch:
	// the ghost demand-loads the word (pointer chases must), which warms
	// the cache exactly like a prefetch.
	ViaLoad bool `json:"via_load,omitempty"`
	// Unfolded lists loop labels whose recurrences were unfolded to their
	// initial value to close the proof: the ghost covers the entry of the
	// recurrence (e.g. a hash probe chain's first slot), speculating that
	// later chain steps hit nearby lines.
	Unfolded  []string `json:"unfolded,omitempty"`
	MainExpr  string   `json:"main_expr"`
	GhostExpr string   `json:"ghost_expr,omitempty"`
	// Reason and CexPath document an UNPROVED verdict: why the closest
	// candidate fails, and the minimal instruction path (provenance PCs of
	// the differing sub-expressions, ghost then main) that witnesses it.
	Reason  string `json:"reason,omitempty"`
	CexPath []int  `json:"cex_path,omitempty"`
}

// Verdict is the verification result for one (spawn site, helper) pair.
type Verdict struct {
	Helper    string          `json:"helper"`
	SpawnPC   int             `json:"spawn_pc"`
	JoinPC    int             `json:"join_pc"`
	Status    VerdictStatus   `json:"status"`
	Targets   []TargetVerdict `json:"targets"`
	Auxiliary []int           `json:"auxiliary,omitempty"` // unmatched ghost prefetch PCs (informational)
	Err       string          `json:"error,omitempty"`     // structural failure, forces UNPROVED
}

// VerifyHelperPatterns validates helper hid of main, given the analyses
// of main (mp) and the helper (gp): one Verdict per reachable spawn
// site. The main program must contain at least one OpSpawn with
// Imm == hid; otherwise a single UNPROVED verdict explains the failure.
func VerifyHelperPatterns(mp, gp *Patterns, hid int) []*Verdict {
	main, ghost := mp.Prog, gp.Prog
	var out []*Verdict
	for pc := range main.Code {
		in := &main.Code[pc]
		if in.Op != isa.OpSpawn || int(in.Imm) != hid || !mp.G.ReachablePC(pc) {
			continue
		}
		out = append(out, verifySite(mp, gp, pc))
	}
	if len(out) == 0 {
		out = append(out, &Verdict{
			Helper: ghost.Name, SpawnPC: -1, JoinPC: -1, Status: Unproved,
			Err: fmt.Sprintf("main program %q has no reachable spawn of helper %d", main.Name, hid),
		})
	}
	return out
}

// verifySite validates one spawn site.
func verifySite(mp, gp *Patterns, spawnPC int) *Verdict {
	v := &Verdict{Helper: gp.Prog.Name, SpawnPC: spawnPC, JoinPC: -1}
	main, ghost := mp.Prog, gp.Prog

	// Region: [spawnPC+1, joinPC). Builders emit structured spawn/join
	// pairs, so the next reachable join closes the region.
	for pc := spawnPC + 1; pc < len(main.Code); pc++ {
		if main.Code[pc].Op == isa.OpJoin && mp.G.ReachablePC(pc) {
			v.JoinPC = pc
			break
		}
	}
	if v.JoinPC < 0 {
		v.Status = Unproved
		v.Err = fmt.Sprintf("no reachable join after spawn at pc=%d", spawnPC)
		return v
	}
	inRegion := func(pc int) bool { return pc > spawnPC && pc < v.JoinPC }

	// Obligations: annotated target loads inside the region. Regions with
	// no annotated loads (deliberately unadvised workloads, build-phase
	// helpers) fall back to implicit obligations: the region's memory
	// reads, so the helper's prefetches are still checked against
	// something real.
	var obligations []int
	for pc := spawnPC + 1; pc < v.JoinPC; pc++ {
		in := &main.Code[pc]
		if in.Op == isa.OpLoad && in.HasFlag(isa.FlagTargetLoad) && mp.G.ReachablePC(pc) {
			obligations = append(obligations, pc)
		}
	}
	implicit := len(obligations) == 0
	if implicit {
		for pc := spawnPC + 1; pc < v.JoinPC; pc++ {
			in := &main.Code[pc]
			if (in.Op == isa.OpLoad || in.Op == isa.OpAtomicAdd) &&
				!in.HasFlag(isa.FlagSync) && mp.G.ReachablePC(pc) {
				obligations = append(obligations, pc)
			}
		}
	}

	// Candidates: ghost prefetches outside sync segments, then ghost
	// demand loads (a pointer-chasing helper loads the intermediate
	// levels itself — the load warms the cache like a prefetch would).
	type candPC struct {
		pc      int
		viaLoad bool
	}
	var candidates []candPC
	for pc := range ghost.Code {
		in := &ghost.Code[pc]
		if in.Op == isa.OpPrefetch && !in.HasFlag(isa.FlagSync) && gp.G.ReachablePC(pc) {
			candidates = append(candidates, candPC{pc: pc})
		}
	}
	for pc := range ghost.Code {
		in := &ghost.Code[pc]
		if in.Op == isa.OpLoad && !in.HasFlag(isa.FlagSync) && gp.G.ReachablePC(pc) {
			candidates = append(candidates, candPC{pc: pc, viaLoad: true})
		}
	}

	// Loop matching: the main region's loop tree against the ghost's
	// non-sync loop tree, matched positionally in preorder. Matched pairs
	// share canonical iteration labels.
	mainLoops := regionLoopTree(mp, func(li int) bool {
		h := mp.G.Blocks[mp.F.Loops[li].Header].Start
		return inRegion(h)
	})
	ghostLoops := regionLoopTree(gp, func(li int) bool {
		return !allSyncLoop(gp, li)
	})
	mainLabels, ghostLabels := map[int]string{}, map[int]string{}
	matchLoops(mainLoops, ghostLoops, "L", mainLabels, ghostLabels)

	mev := NewSymEval(main, mp.G, mp.S, mp.F, mainLabels, false)
	mev.Prefix = "m"
	gev := NewSymEval(ghost, gp.G, gp.S, gp.F, ghostLabels, true)
	gev.Prefix = "g"

	rw := newRewriter(mp, gp, mev, spawnPC, v.JoinPC)

	// Evaluate and rewrite every candidate once, with its μ-unfolded form
	// (recurrences collapsed to their initial value) for second-pass
	// matching.
	type cand struct {
		pc       int
		viaLoad  bool
		expr     *SymExpr // rewritten into main space
		unfolded *SymExpr
		unLabels []string
		specs    []SpecPoint
	}
	cands := make([]cand, 0, len(candidates))
	for _, cp := range candidates {
		ge := gev.AddrExpr(cp.pc)
		rewritten, specs := rw.rewrite(ge)
		une, unl := unfoldRecs(rewritten)
		cands = append(cands, cand{pc: cp.pc, viaLoad: cp.viaLoad,
			expr: rewritten, unfolded: une, unLabels: unl, specs: specs})
	}

	// maxLead bounds the constant address lead two matched expressions may
	// differ by; beyond it, two accidentally-constant addresses would
	// "match" with an absurd offset.
	const maxLead = 1 << 12

	matched := make(map[int]bool) // candidate pc -> consumed by a target

	for _, tpc := range obligations {
		me := mev.AddrExpr(tpc)
		meUnfolded, meLabels := unfoldRecs(me)
		tv := TargetVerdict{TargetPC: tpc, GhostPC: -1, Implicit: implicit, MainExpr: me.String()}

		best := -1
		bestDiff := -1 // number of differing terms of the closest failed candidate
		for i := range cands {
			c := &cands[i]

			// Pass 1: exact match modulo constant lead.
			ok := false
			var unfolded []string
			diff := exprAdd(me, exprScale(c.expr, -1))
			if len(diff.Terms) == 0 && abs64(diff.Const) < maxLead {
				ok = true
			} else {
				// Pass 2: unfold loop-carried recurrences on both sides —
				// the ghost covers the recurrence's entry address.
				ud := exprAdd(meUnfolded, exprScale(c.unfolded, -1))
				if len(ud.Terms) == 0 && abs64(ud.Const) < maxLead {
					ok = true
					diff = ud
					unfolded = append(append([]string(nil), meLabels...), c.unLabels...)
				}
			}

			if ok {
				tv.GhostPC = c.pc
				tv.Lead = -diff.Const // ghost = main + lead
				tv.ViaLoad = c.viaLoad
				tv.GhostExpr = c.expr.String()
				tv.SkipPCs = c.expr.Skips
				tv.Spec = c.specs
				tv.Unfolded = dedupStrings(unfolded)
				if len(tv.SkipPCs) > 0 || len(tv.Spec) > 0 || len(tv.Unfolded) > 0 {
					tv.Status = ProvedModuloSync
				} else {
					tv.Status = Proved
				}
				matched[c.pc] = true
				best = -1
				break
			}
			if !c.viaLoad && (bestDiff < 0 || len(diff.Terms) < bestDiff) {
				bestDiff = len(diff.Terms)
				best = i
			}
		}

		if tv.GhostPC < 0 {
			if implicit {
				// Unannotated region reads the ghost does not cover are not
				// failures — only annotated targets carry proof obligations.
				continue
			}
			tv.Status = Unproved
			if best < 0 {
				tv.Reason = "ghost issues no prefetch candidates"
			} else {
				c := &cands[best]
				diff := exprAdd(me, exprScale(c.expr, -1))
				tv.GhostExpr = c.expr.String()
				tv.Reason = fmt.Sprintf(
					"closest candidate pc=%d differs: main=%s ghost=%s delta=%s",
					c.pc, me.String(), c.expr.String(), diff.String())
				tv.CexPath = cexPath(tpc, c.pc, diff)
			}
		}
		v.Targets = append(v.Targets, tv)
	}

	for i := range cands {
		if !cands[i].viaLoad && !matched[cands[i].pc] {
			v.Auxiliary = append(v.Auxiliary, cands[i].pc)
		}
	}

	v.Status = Proved
	for _, tv := range v.Targets {
		if tv.Status > v.Status {
			v.Status = tv.Status
		}
	}
	return v
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func dedupStrings(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// unfoldRecs replaces every loop-carried recurrence μ(init, body) in the
// expression with its initial value, recursively, returning the unfolded
// expression and the labels of the loops unfolded. Matching through this
// transformation proves only that the ghost covers the recurrence's
// entry address (its first probe) — a documented speculation.
func unfoldRecs(e *SymExpr) (*SymExpr, []string) {
	u := &unfolder{memo: map[*SymExpr]*SymExpr{}, labels: map[string]bool{}}
	out := u.expr(e)
	var labels []string
	for l := range u.labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return out, labels
}

type unfolder struct {
	memo   map[*SymExpr]*SymExpr
	labels map[string]bool
}

func (u *unfolder) expr(e *SymExpr) *SymExpr {
	if r, ok := u.memo[e]; ok {
		return r
	}
	out := exprConst(e.Const)
	for _, t := range e.Terms {
		out = exprAdd(out, exprScale(u.atom(t.Atom), t.Coeff))
	}
	out.Skips = mergeInts(out.Skips, e.Skips)
	u.memo[e] = out
	return out
}

func (u *unfolder) atom(a *SymAtom) *SymExpr {
	switch a.Kind {
	case AtomRecDef:
		u.labels[a.Loop] = true
		return u.expr(a.Args[0])
	case AtomLoad:
		addr := u.expr(a.Addr)
		if addr.Key() == a.Addr.Key() {
			return exprAtom(a)
		}
		return exprAtom(&SymAtom{Kind: AtomLoad, Addr: addr, PC: a.PC})
	case AtomOp, AtomSel:
		changed := false
		args := make([]*SymExpr, len(a.Args))
		for i, sub := range a.Args {
			args[i] = u.expr(sub)
			if args[i].Key() != sub.Key() {
				changed = true
			}
		}
		if !changed {
			return exprAtom(a)
		}
		return exprAtom(&SymAtom{Kind: a.Kind, Op: a.Op, Imm: a.Imm, Args: args, PC: a.PC})
	default:
		return exprAtom(a)
	}
}

// cexPath assembles the minimal counterexample path of an UNPROVED
// verdict: the target load, the candidate prefetch, and the provenance
// PCs of the sub-expressions that refuse to cancel.
func cexPath(targetPC, ghostPC int, diff *SymExpr) []int {
	seen := map[int]bool{targetPC: true, ghostPC: true}
	path := []int{targetPC, ghostPC}
	for _, pc := range diff.Loads {
		if !seen[pc] {
			seen[pc] = true
			path = append(path, pc)
		}
	}
	sort.Ints(path[2:])
	return path
}

// loopNode is one node of a restricted loop tree.
type loopNode struct {
	li       int
	children []*loopNode
}

// regionLoopTree builds the forest of natural loops satisfying keep,
// children ordered by header PC (preorder corresponds to program order).
func regionLoopTree(pt *Patterns, keep func(li int) bool) []*loopNode {
	nodes := map[int]*loopNode{}
	var kept []int
	for li := range pt.F.Loops {
		if keep(li) {
			nodes[li] = &loopNode{li: li}
			kept = append(kept, li)
		}
	}
	var roots []*loopNode
	for _, li := range kept {
		// Nearest kept ancestor.
		p := pt.F.Loops[li].Parent
		for p >= 0 && nodes[p] == nil {
			p = pt.F.Loops[p].Parent
		}
		if p >= 0 {
			nodes[p].children = append(nodes[p].children, nodes[li])
		} else {
			roots = append(roots, nodes[li])
		}
	}
	headerPC := func(n *loopNode) int { return pt.G.Blocks[pt.F.Loops[n.li].Header].Start }
	var sortTree func(ns []*loopNode)
	sortTree = func(ns []*loopNode) {
		sort.Slice(ns, func(i, j int) bool { return headerPC(ns[i]) < headerPC(ns[j]) })
		for _, n := range ns {
			sortTree(n.children)
		}
	}
	sortTree(roots)
	return roots
}

// allSyncLoop reports whether every reachable instruction of the loop
// carries FlagSync — the sync segment's wait-throttle loop.
func allSyncLoop(pt *Patterns, li int) bool {
	l := &pt.F.Loops[li]
	for b := range l.Blocks {
		if !pt.G.Reachable(b) {
			continue
		}
		for pc := pt.G.Blocks[b].Start; pc < pt.G.Blocks[b].End; pc++ {
			if !pt.Prog.Code[pc].HasFlag(isa.FlagSync) {
				return false
			}
		}
	}
	return true
}

// matchLoops pairs the two forests positionally in preorder, assigning
// matched pairs the same canonical label.
func matchLoops(a, b []*loopNode, prefix string, la, lb map[int]string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("%s%d", prefix, i)
		la[a[i].li] = label
		lb[b[i].li] = label
		matchLoops(a[i].children, b[i].children, label+".", la, lb)
	}
}

// rewriter rewrites ghost-space expressions into main-thread space:
// spawn-time register parameters become the main thread's values at the
// spawn, and loads from published memory words become the stored value.
type rewriter struct {
	mp, gp     *Patterns
	mev        *SymEval
	spawnPC    int
	joinPC     int
	params     map[isa.Reg]*SymExpr
	published  map[string]*publishedWord // main-space const-addr key -> publication
	regionSt   []int                     // main-region store/atomic PCs
	specStores map[int][]int             // ghost load pc -> aliasing main-region store PCs
	specs      []SpecPoint               // accumulator for the current rewrite
	memo       map[*SymExpr]*SymExpr     // ghost node -> rewritten node, for the current rewrite
}

// publishedWord is one published live-in: the stored value expression
// plus any region stores that could clobber the word (each substitution
// through a clobberable word is a documented speculation point).
type publishedWord struct {
	value    *SymExpr
	clobbers []int
}

func newRewriter(mp, gp *Patterns, mev *SymEval, spawnPC, joinPC int) *rewriter {
	rw := &rewriter{
		mp: mp, gp: gp, mev: mev,
		spawnPC: spawnPC, joinPC: joinPC,
		params:     map[isa.Reg]*SymExpr{},
		published:  map[string]*publishedWord{},
		specStores: map[int][]int{},
	}
	for pc := spawnPC + 1; pc < joinPC; pc++ {
		op := mp.Prog.Code[pc].Op
		if (op == isa.OpStore || op == isa.OpAtomicAdd) && mp.G.ReachablePC(pc) {
			rw.regionSt = append(rw.regionSt, pc)
		}
	}
	rw.buildPublished()
	return rw
}

// buildPublished discovers the published-live-in idiom: the main thread
// stores a value to a constant shared word before (dominating) the
// spawn; the ghost reloads it in its preamble. When a region store
// cannot be disproven against the word, the substitution still applies
// but carries the potential clobbers as speculation points — the ghost
// may read a stale value, misdirecting (not corrupting) its prefetches.
func (rw *rewriter) buildPublished() {
	idom := rw.mp.Idom
	spawnB := rw.mp.G.BlockOf[rw.spawnPC]
	for pc := range rw.mp.Prog.Code {
		in := &rw.mp.Prog.Code[pc]
		if in.Op != isa.OpStore || !rw.mp.G.ReachablePC(pc) {
			continue
		}
		b := rw.mp.G.BlockOf[pc]
		if b == spawnB {
			if pc >= rw.spawnPC {
				continue
			}
		} else if !Dominates(idom, b, spawnB) {
			continue
		}
		addr := rw.mev.AddrExpr(pc)
		if !addr.IsConst() {
			continue
		}
		var clobbers []int
		for _, spc := range rw.regionSt {
			if spc == pc || rw.mp.Prog.Code[spc].HasFlag(isa.FlagSync) {
				continue
			}
			if MayAlias(rw.mp, spc, rw.mp, pc) {
				clobbers = append(clobbers, spc)
			}
		}
		// Later dominating stores to the same word win (forward scan).
		rw.published[addr.Key()] = &publishedWord{
			value:    rw.mev.ValueExpr(rw.mp.S.UseVal[pc][1]),
			clobbers: clobbers,
		}
	}
}

// rewrite maps a ghost expression into main space, returning the
// rewritten expression plus the speculation points it relies on.
//
// The ghost expression is a hash-consed DAG that can unroll to
// exponential size as a tree (hj8's hash rounds), so each node is
// rewritten once per call and shared afterwards. Shared output nodes
// also let unfoldRecs' pointer memo hit. The memo lives for one call
// because speculation points are collected per call: a hit skips only a
// revisit whose points the first visit already recorded.
func (rw *rewriter) rewrite(e *SymExpr) (*SymExpr, []SpecPoint) {
	rw.specs = nil
	rw.memo = map[*SymExpr]*SymExpr{}
	out := rw.expr(e)
	specs := rw.specs
	rw.specs, rw.memo = nil, nil
	return out, specs
}

func (rw *rewriter) expr(e *SymExpr) *SymExpr {
	if r, ok := rw.memo[e]; ok {
		return r
	}
	out := exprConst(e.Const)
	for _, t := range e.Terms {
		out = exprAdd(out, exprScale(rw.atom(t.Atom), t.Coeff))
	}
	out.Skips = mergeInts(out.Skips, e.Skips)
	rw.memo[e] = out
	return out
}

func (rw *rewriter) atom(a *SymAtom) *SymExpr {
	switch a.Kind {
	case AtomParam:
		if p, ok := rw.params[a.Reg]; ok {
			return p
		}
		id := rw.mp.S.ValueOfRegAt(rw.spawnPC, a.Reg)
		var p *SymExpr
		if id < 0 {
			p = rw.mev.ValueExpr(rw.mp.S.Param(a.Reg))
		} else {
			p = rw.mev.ValueExpr(id)
		}
		rw.params[a.Reg] = p
		return p
	case AtomIter, AtomRec:
		return exprAtom(a)
	case AtomLoad:
		addr := rw.expr(a.Addr)
		if pub, ok := rw.published[addr.Key()]; ok {
			for _, spc := range pub.clobbers {
				rw.addSpec(a.PC, spc)
			}
			v := pub.value
			return &SymExpr{Const: v.Const, Terms: v.Terms, frees: v.frees,
				Loads: v.Loads, Skips: mergeInts(v.Skips, addr.Skips)}
		}
		rw.recordSpecs(a.PC)
		return exprAtom(&SymAtom{Kind: AtomLoad, Addr: addr, PC: a.PC})
	case AtomRecDef:
		init := rw.expr(a.Args[0])
		body := rw.expr(a.Args[1])
		return exprAtom(&SymAtom{Kind: AtomRecDef, Loop: a.Loop, Depth: a.Depth,
			Args: []*SymExpr{init, body}, PC: a.PC})
	default: // AtomOp, AtomSel
		args := make([]*SymExpr, len(a.Args))
		for i, sub := range a.Args {
			args[i] = rw.expr(sub)
		}
		return exprAtom(&SymAtom{Kind: a.Kind, Op: a.Op, Imm: a.Imm, Args: args, PC: a.PC})
	}
}

// recordSpecs notes every main-region store that may clobber the value
// the ghost load at pc observes — a speculation point, not a refutation.
func (rw *rewriter) recordSpecs(pc int) {
	stores, ok := rw.specStores[pc]
	if !ok {
		for _, spc := range rw.regionSt {
			if rw.mp.Prog.Code[spc].HasFlag(isa.FlagSync) {
				continue // sync counters never feed address computation
			}
			if MayAlias(rw.gp, pc, rw.mp, spc) {
				stores = append(stores, spc)
			}
		}
		rw.specStores[pc] = stores
	}
	for _, spc := range stores {
		rw.addSpec(pc, spc)
	}
}

// addSpec appends a speculation point, deduplicating.
func (rw *rewriter) addSpec(loadPC, storePC int) {
	for _, s := range rw.specs {
		if s.GhostLoadPC == loadPC && s.MainStorePC == storePC {
			return
		}
	}
	rw.specs = append(rw.specs, SpecPoint{GhostLoadPC: loadPC, MainStorePC: storePC})
}
