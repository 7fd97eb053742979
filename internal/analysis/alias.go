package analysis

// alias.go — a may-alias oracle between memory operands, built on the
// interval analysis and the canonical address expressions of the
// symbolic evaluator. All rules over-approximate the dynamic address
// sets (every iteration counter ranges over all of ℤ), so a "no alias"
// answer is sound for any pair of dynamic instances of the two operands
// — exactly what the race checker compares.

import (
	"fmt"
	"strings"
)

// gcd64 returns the non-negative greatest common divisor (gcd(0, x) = |x|).
func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// progression is an arithmetic-progression over-approximation of an
// operand's dynamic address set: {base + residue + k·modulus | k ∈ ℤ},
// where base is a canonical sum of stable terms (empty for a constant
// base). A modulus of 0 is the singleton {base + residue}.
type progression struct {
	base    string
	residue int64
	modulus int64
}

// disjoint reports whether two progressions over the same base cannot
// meet: residues differ modulo gcd(modulusA, modulusB).
func (p progression) disjoint(o progression) bool {
	g := gcd64(p.modulus, o.modulus)
	d := p.residue - o.residue
	if g == 0 {
		return d != 0
	}
	return d%g != 0
}

// progression folds the address of the memory operand at pc into a
// progression: iteration-counter terms set the modulus, the constant the
// residue, and every other term must be stable (a live-in or a pure
// operation on live-ins) to join the base. ok is false otherwise, and
// for an expression that relies on an erased sync skip, whose counters
// are then not exact.
func (pt *Patterns) progression(pc int) (p progression, ok bool) {
	e := pt.ev.AddrExpr(pc)
	if len(e.Skips) > 0 {
		return p, false
	}
	p.residue = e.Const
	var base strings.Builder
	for _, t := range e.Terms {
		if t.Atom.Kind == AtomIter {
			p.modulus = gcd64(p.modulus, t.Coeff)
			continue
		}
		if !pt.atomShape(t.Atom).stable {
			return p, false
		}
		fmt.Fprintf(&base, "+%d*%s", t.Coeff, t.Atom.Key())
	}
	p.base = base.String()
	return p, true
}

// MayAlias reports whether the memory operands at apc (in pa's program)
// and bpc (in pb's) may refer to the same word. It answers false only
// when one of three sound disjointness arguments applies:
//
//  1. the interval analysis bounds the two address sets apart;
//  2. both addresses are a constant plus iteration-counter terms, and the
//     two arithmetic progressions cannot meet (residues differ modulo
//     the gcd of the counter coefficients);
//  3. same analysis only: both addresses share identical stable
//     non-counter terms, so those cancel and the constant offset
//     difference is tested against the coefficient gcd — the rule that
//     separates interleaved streams (A[2i] vs A[2i+1]) whose common base
//     is a live-in register.
//
// Cross-program pairs (a main-thread store against a helper's access)
// use only rules 1 and 2: register files are copied at spawn, so a
// live-in in the helper need not track later redefinitions in the main
// thread.
func MayAlias(pa *Patterns, apc int, pb *Patterns, bpc int) bool {
	if !pa.Vals.MemAddr(apc).Intersects(pb.Vals.MemAddr(bpc)) {
		return false
	}
	ra, ok := pa.progression(apc)
	if !ok {
		return true
	}
	rb, ok := pb.progression(bpc)
	if !ok || ra.base != rb.base || (ra.base != "" && pa != pb) {
		return true
	}
	return !ra.disjoint(rb)
}
