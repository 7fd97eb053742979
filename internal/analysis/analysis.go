// Package analysis is a static-analysis layer over the isa IR: control
// flow graph construction, dominators, natural-loop reconstruction
// (cross-checked against the Builder's loop annotations), an abstract
// interpretation of register values over an interval domain, and a
// pruned-SSA rename whose value graph carries the def-use chains and
// feeds one symbolic evaluator (SymEval) that canonicalizes every value
// into an affine combination of atoms. AnalyzeAddrPatterns builds all of
// it once per program; the result (Patterns) is what every client below
// takes.
//
// The symbolic evaluator serves two clients. Translation validation
// (VerifyHelperPatterns) proves a ghost helper's prefetch addresses
// equal to the main thread's demand addresses. The address-pattern
// queries (Patterns.PatternAt) read each memory operand's canonical
// address to classify it (invariant, affine with a stride, computed,
// indirect with a depth, pointer-chase) and to answer the may-alias
// oracle (MayAlias) the race lint, the minimality report and the
// validator's speculation points use.
//
// On top of the framework sit the checkers that turn the repository's
// dynamic correctness story into compile-time guarantees:
//
//   - CheckGhostSafety proves a ghost program read-only with respect to
//     application state (DESIGN.md §7): it may prefetch anything but
//     write only its private trace counter word, shown by abstract
//     interpretation of store-address provenance rather than by running
//     the program.
//   - CheckSyncSegment verifies the figure-4(d) synchronization state
//     machine is structurally present and well formed: a reachable,
//     conditional serialize guarded by a 0/1 flag, a main-counter load
//     gated by a power-of-two iteration mask, bounded serialize backoff,
//     and a bounded skip amount.
//   - CheckRaces verifies the Parallel (SMT-OpenMP) variants' shared
//     writes are race-free by construction: every write that can execute
//     while the sibling thread is live is an AtomicAdd or lands in an
//     address set MayAlias proves disjoint from the sibling's.
//   - Minimality quantifies dead and loop-invariant instructions in a
//     ghost program — the manual-vs-compiler overhead gap of paper §6.1.
//
// The package depends only on internal/isa, so every layer above it
// (core, slice, harness, the workload builders, cmd/gtlint) can use it.
package analysis

import (
	"fmt"
	"sort"

	"ghostthread/internal/isa"
)

// Severity grades a finding.
type Severity int

// Severities. Errors fail gtlint and reject programs at construction;
// warnings indicate accepted-but-noteworthy structure (e.g. benign races
// in variants validated by relaxed invariants); infos are reports.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON emits the severity as its stable string name, so JSON
// output (gtlint -json) survives renumbering the constants.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Finding is one checker result, anchored to a program point.
type Finding struct {
	Checker  string   `json:"checker"` // "ghost-safety", "sync-segment", "race", "loops", "minimality"
	Program  string   `json:"program"` // program name
	PC       int      `json:"pc"`      // instruction index, or -1 for program-wide findings
	Severity Severity `json:"severity"`
	Msg      string   `json:"msg"`
}

// String renders the finding in gtlint's one-line format.
func (f Finding) String() string {
	if f.PC < 0 {
		return fmt.Sprintf("%s: %s: [%s] %s", f.Program, f.Checker, f.Severity, f.Msg)
	}
	return fmt.Sprintf("%s: %s: pc=%d [%s] %s", f.Program, f.Checker, f.PC, f.Severity, f.Msg)
}

// Report collects findings across checkers.
type Report struct {
	Findings []Finding
}

// Add appends findings.
func (r *Report) Add(fs ...Finding) { r.Findings = append(r.Findings, fs...) }

// Errors returns only the error-severity findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == SevError {
			out = append(out, f)
		}
	}
	return out
}

// HasErrors reports whether any finding is an error.
func (r *Report) HasErrors() bool { return len(r.Errors()) > 0 }

// Sort orders findings by program, then severity (errors first), then
// PC, then checker, then message — a total order, so two runs over the
// same programs serialize identically and golden files are stable.
func (r *Report) Sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Msg < b.Msg
	})
}

// Dedupe sorts the report and drops exact-duplicate findings (same
// checker, program, PC, severity, message) — checkers running over
// overlapping program sets may legitimately rediscover the same fact.
func (r *Report) Dedupe() {
	r.Sort()
	out := r.Findings[:0]
	for i, f := range r.Findings {
		if i > 0 && f == r.Findings[i-1] {
			continue
		}
		out = append(out, f)
	}
	r.Findings = out
}

// CounterAddrs are the shared synchronization words a ghost thread is
// allowed to interact with (core.Counters, restated here so the analysis
// layer stays below internal/core in the dependency order).
type CounterAddrs struct {
	Main  int64 // published main-thread iteration count (ghost: read-only)
	Ghost int64 // ghost-side trace word (ghost: the only writable word)
}

func finding(checker string, p *isa.Program, pc int, sev Severity, format string, args ...any) Finding {
	return Finding{Checker: checker, Program: p.Name, PC: pc, Severity: sev, Msg: fmt.Sprintf(format, args...)}
}
