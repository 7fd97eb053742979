package core

import (
	"errors"
	"fmt"

	"ghostthread/internal/analysis"
	"ghostthread/internal/isa"
)

// ErrUnsafeGhost marks a helper program that failed static safety
// verification and must not be deployed.
var ErrUnsafeGhost = errors.New("core: unsafe ghost program")

// Plan statically verifies helper programs before they are handed to the
// simulator: each must pass the ghost-safety proof (writes confined to
// its private counter word, no thread management), the synchronization
// segment lint, and the loop-annotation cross-check. The report carries
// every finding, warnings included; the error is non-nil iff any finding
// is an error, in which case the helpers must not run. Both the manual
// ghost path (harness.Eval) and the compiler extractor (slice.Extract)
// call this, so an unsafe ghost is rejected at construction rather than
// silently corrupting application state mid-simulation.
func Plan(helpers []*isa.Program, ctr Counters) (*analysis.Report, error) {
	pats := make([]*analysis.Patterns, len(helpers))
	for i, hp := range helpers {
		if hp != nil {
			pats[i] = analysis.AnalyzeAddrPatterns(hp)
		}
	}
	return PlanPatterns(pats, ctr)
}

// PlanPatterns is Plan over the helpers' analyses (nil entries are
// skipped), for callers that already hold them.
func PlanPatterns(helpers []*analysis.Patterns, ctr Counters) (*analysis.Report, error) {
	ca := analysis.CounterAddrs{Main: ctr.MainAddr, Ghost: ctr.GhostAddr}
	rep := &analysis.Report{}
	for _, pt := range helpers {
		if pt == nil {
			continue
		}
		rep.Add(analysis.CrossCheckLoops(pt)...)
		rep.Add(analysis.CheckGhostSafety(pt, ca)...)
		rep.Add(analysis.CheckSyncSegment(pt, ca)...)
	}
	rep.Sort()
	if rep.HasErrors() {
		first := rep.Errors()[0]
		return rep, fmt.Errorf("%w: %s", ErrUnsafeGhost, first)
	}
	return rep, nil
}
