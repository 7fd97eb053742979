package workloads

import (
	"fmt"

	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
)

// Scale selects the input size (paper table 1: profiling uses reduced
// inputs, evaluation the full ones).
type Scale int

// Scales.
const (
	ScaleProfile Scale = iota
	ScaleEval
)

// String names the scale.
func (s Scale) String() string {
	if s == ScaleEval {
		return "eval"
	}
	return "profile"
}

// ParseScale is the inverse of String.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "profile":
		return ScaleProfile, nil
	case "eval":
		return ScaleEval, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want eval | profile)", s)
}

// Options configures workload construction.
type Options struct {
	Scale Scale
	Sync  core.SyncParams
	// SWPFDistance is the look-ahead distance of the software-prefetch
	// variants, in iterations (the manually tuned value).
	SWPFDistance int64
}

// DefaultOptions returns evaluation-scale options with tuned parameters.
func DefaultOptions() Options {
	return Options{Scale: ScaleEval, Sync: core.DefaultSyncParams(), SWPFDistance: 16}
}

// ProfileOptions returns the reduced-input profiling configuration.
func ProfileOptions() Options {
	o := DefaultOptions()
	o.Scale = ScaleProfile
	return o
}

// Variant is one runnable configuration of a workload.
type Variant struct {
	Main    *isa.Program
	Helpers []*isa.Program
}

// Instance is a fully built workload: memory image plus all variants.
// Runs mutate memory, so the harness builds a fresh Instance per run.
type Instance struct {
	Name string
	Mem  *mem.Memory

	Baseline *Variant
	SWPF     *Variant
	Parallel *Variant // nil when parallelization would require rewriting
	Ghost    *Variant // nil when no manual ghost thread exists

	// Counters are the sync/trace words of the Ghost variant (distance
	// sampling reads them).
	Counters core.Counters

	// InnerTrips is the builder's estimate of the innermost target
	// loop's trip count per entry — the average degree for graph
	// kernels (paper table 1's E/N) — or 0 when the builder makes no
	// estimate (flat loops, data-dependent probe chains). The static
	// cost model (analysis.GhostBenefit) uses it to discount targets
	// whose inner loops are too short to amortize the sync segment.
	InnerTrips float64

	// Check validates the application results in Mem after a run.
	Check func(m *mem.Memory) error

	// CheckRelaxed, when non-nil, replaces Check for the Parallel
	// variant: racy-but-convergent parallel kernels (bfs parent choice,
	// cc/sssp chaotic relaxation) can produce results that differ from
	// the sequential reference while still being correct, so they are
	// validated against algorithm invariants instead.
	CheckRelaxed func(m *mem.Memory) error
}

// CheckFor returns the right validation function for a variant name.
func (in *Instance) CheckFor(vname string) func(m *mem.Memory) error {
	if vname == "smt-openmp" && in.CheckRelaxed != nil {
		return in.CheckRelaxed
	}
	return in.Check
}

// VariantNames in evaluation order.
var VariantNames = []string{"baseline", "swpf", "smt-openmp", "ghost"}

// VariantByName returns the named variant (nil when unavailable).
func (in *Instance) VariantByName(name string) *Variant {
	switch name {
	case "baseline":
		return in.Baseline
	case "swpf":
		return in.SWPF
	case "smt-openmp":
		return in.Parallel
	case "ghost":
		return in.Ghost
	}
	return nil
}

// NamedVariant pairs a variant with its registry name.
type NamedVariant struct {
	Name    string
	Variant *Variant
}

// Variants returns the instance's available variants in evaluation
// order. The list is self-describing — tools that sweep every variant
// (gtlint, the analysis sweep test) iterate this instead of hard-coding
// names, so a new variant is linted the day it is added.
func (in *Instance) Variants() []NamedVariant {
	var out []NamedVariant
	for _, name := range VariantNames {
		if v := in.VariantByName(name); v != nil {
			out = append(out, NamedVariant{Name: name, Variant: v})
		}
	}
	return out
}

// Relaxed reports whether the Parallel variant is validated by relaxed
// algorithm invariants rather than bit-exact comparison — i.e. its races
// are tolerated by design (chaotic-relaxation graph kernels).
func (in *Instance) Relaxed() bool { return in.CheckRelaxed != nil }

// Builder is a workload constructor at a given option set.
type Builder func(Options) *Instance

// hashMul is the multiplicative constant of the benchmark hash function.
const hashMul int64 = 0x2545F4914F6CDD1D

// hashRound is one round of the Go-side reference hash. The IR emitted by
// emitHash computes exactly this, so variant results are bit-identical.
func hashRound(x int64) int64 {
	x ^= int64(uint64(x) >> 13)
	x *= hashMul
	x ^= int64(uint64(x) >> 7)
	return x
}

// hashN applies rounds rounds of the reference hash.
func hashN(x int64, rounds int) int64 {
	for i := 0; i < rounds; i++ {
		x = hashRound(x)
	}
	return x
}

// emitHash emits the IR equivalent of hashN, operating in place on x
// with scratch register tmp: 5 instructions per round.
func emitHash(b *isa.Builder, x, tmp isa.Reg, rounds int) {
	for i := 0; i < rounds; i++ {
		b.ShrI(tmp, x, 13)
		b.Xor(x, x, tmp)
		b.MulI(x, x, hashMul)
		b.ShrI(tmp, x, 7)
		b.Xor(x, x, tmp)
	}
}

// checkWord returns a Check function comparing one memory word.
func checkWord(addr, want int64, what string) func(m *mem.Memory) error {
	return func(m *mem.Memory) error {
		if got := m.LoadWord(addr); got != want {
			return fmt.Errorf("%s: got %d, want %d", what, got, want)
		}
		return nil
	}
}

// checkWords returns a Check function comparing a contiguous region
// against want.
func checkWords(addr int64, want []int64, what string) func(m *mem.Memory) error {
	return func(m *mem.Memory) error {
		for i, w := range want {
			if got := m.LoadWord(addr + int64(i)); got != w {
				return fmt.Errorf("%s[%d]: got %d, want %d", what, i, got, w)
			}
		}
		return nil
	}
}

// combineChecks runs all checks in order.
func combineChecks(checks ...func(m *mem.Memory) error) func(m *mem.Memory) error {
	return func(m *mem.Memory) error {
		for _, c := range checks {
			if c == nil {
				continue
			}
			if err := c(m); err != nil {
				return err
			}
		}
		return nil
	}
}
