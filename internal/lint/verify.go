package lint

import (
	"fmt"

	"ghostthread/internal/analysis"
	"ghostthread/internal/cpu"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// HelperVerdicts pairs one ghost helper with the translation-validation
// verdicts for each of its spawn sites.
type HelperVerdicts struct {
	Helper   int                 `json:"helper"`
	Name     string              `json:"name"`
	Verdicts []*analysis.Verdict `json:"verdicts"`
}

// ShadowSummary reports the dynamic shadow oracle's cross-check of the
// ghost's prefetch stream against the main thread's demand stream, in
// both stepping modes.
type ShadowSummary struct {
	Ref cpu.ShadowStats `json:"ref"`
	Opt cpu.ShadowStats `json:"opt"`
	// Agree is true when both modes report zero divergent prefetches —
	// the dynamic analogue of a PROVED static verdict.
	Agree bool `json:"agree"`
}

// WorkloadVerdict is the complete gtverify result for one workload's
// manual ghost variant.
type WorkloadVerdict struct {
	Workload string                 `json:"workload"`
	Variant  string                 `json:"variant,omitempty"`
	Status   analysis.VerdictStatus `json:"status"`
	Helpers  []HelperVerdicts       `json:"helpers,omitempty"`
	// NoGhost marks workloads without a manual ghost variant; Status is
	// vacuously Proved for them.
	NoGhost bool           `json:"noGhost,omitempty"`
	Shadow  *ShadowSummary `json:"shadow,omitempty"`
}

// VerifyOptions configures a verification run.
type VerifyOptions struct {
	// Shadow additionally runs the workload with the dynamic shadow
	// oracle enabled, in both stepping modes, and reports the
	// confirmed/divergent/orphaned prefetch counts.
	Shadow bool
}

// Verify runs translation validation over every ghost helper of one
// registered workload's manual ghost variant.
func Verify(name string, opts VerifyOptions) (*WorkloadVerdict, error) {
	build, err := workloads.Lookup(name)
	if err != nil {
		return nil, err
	}
	// The static analysis does not execute the program, so the
	// profiling-scale instance is representative and cheap.
	wopts := workloads.ProfileOptions()
	inst := build(wopts)
	wv := &WorkloadVerdict{Workload: name, Status: analysis.Proved}
	if inst.Ghost == nil {
		wv.NoGhost = true
		return wv, nil
	}
	wv.Variant = "ghost"
	mp := analysis.AnalyzeAddrPatterns(inst.Ghost.Main)
	for hid, h := range inst.Ghost.Helpers {
		hv := HelperVerdicts{Helper: hid, Name: h.Name}
		hv.Verdicts = analysis.VerifyHelperPatterns(mp, analysis.AnalyzeAddrPatterns(h), hid)
		for _, v := range hv.Verdicts {
			if v.Status > wv.Status {
				wv.Status = v.Status
			}
		}
		wv.Helpers = append(wv.Helpers, hv)
	}
	if opts.Shadow {
		sh, err := shadowRun(build, wopts)
		if err != nil {
			return nil, fmt.Errorf("shadow run: %w", err)
		}
		wv.Shadow = sh
	}
	return wv, nil
}

// shadowRun executes the ghost variant with the shadow oracle enabled in
// both stepping modes and summarises the prefetch cross-check.
func shadowRun(build workloads.Builder, wopts workloads.Options) (*ShadowSummary, error) {
	run := func(cycleStep bool) (sim.Result, error) {
		inst := build(wopts)
		v := inst.Ghost
		cfg := sim.DefaultConfig()
		cfg.CycleStep = cycleStep
		cfg.Shadow = sim.ShadowConfig{Enabled: true}
		res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
		if err != nil {
			return res, err
		}
		if chk := inst.CheckFor("ghost"); chk != nil {
			if err := chk(inst.Mem); err != nil {
				return res, fmt.Errorf("result check: %w", err)
			}
		}
		return res, nil
	}
	ref, err := run(true)
	if err != nil {
		return nil, err
	}
	opt, err := run(false)
	if err != nil {
		return nil, err
	}
	return &ShadowSummary{
		Ref:   ref.Shadow,
		Opt:   opt.Shadow,
		Agree: ref.Shadow.Divergent == 0 && opt.Shadow.Divergent == 0,
	}, nil
}
