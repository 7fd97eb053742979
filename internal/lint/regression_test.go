package lint

import (
	"errors"
	"reflect"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// TestAliasUpgradeOnlyRemovesRaceFindings sweeps every registered
// workload with a Parallel variant and checks the may-alias upgrade of
// the race checker against its interval-only ancestor: the alias oracle
// may only suppress findings (prove more pairs disjoint), never add one.
func TestAliasUpgradeOnlyRemovesRaceFindings(t *testing.T) {
	swept := 0
	for _, e := range workloads.Entries() {
		build, err := workloads.Lookup(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		inst := build(workloads.ProfileOptions())
		if inst.Parallel == nil {
			continue
		}
		swept++
		relaxed := inst.Relaxed()
		mp := analysis.AnalyzeAddrPatterns(inst.Parallel.Main)
		hps := make([]*analysis.Patterns, len(inst.Parallel.Helpers))
		for i, h := range inst.Parallel.Helpers {
			hps[i] = analysis.AnalyzeAddrPatterns(h)
		}
		interval := analysis.CheckRacesOpt(mp, hps, relaxed, analysis.RaceOptions{IntervalOnly: true})
		aliased := analysis.CheckRaces(mp, hps, relaxed)

		if len(aliased) > len(interval) {
			t.Errorf("%s: alias-aware race check grew findings %d -> %d", e.Name, len(interval), len(aliased))
		}
		seen := map[analysis.Finding]bool{}
		for _, f := range interval {
			seen[f] = true
		}
		for _, f := range aliased {
			if !seen[f] {
				t.Errorf("%s: alias-aware race check invented a finding absent from the interval-only run: %s", e.Name, f.String())
			}
		}
	}
	if swept == 0 {
		t.Fatal("no workload with a Parallel variant swept")
	}
}

// TestAliasMinimalityOnlyAddsInfo checks, for every workload the
// compiler can slice, that the alias-upgraded minimality report is the
// plain report plus only info-severity "minimality-alias" findings.
func TestAliasMinimalityOnlyAddsInfo(t *testing.T) {
	swept := 0
	for _, e := range workloads.Entries() {
		build, err := workloads.Lookup(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		inst := build(workloads.ProfileOptions())
		targets := StaticTargets(inst.Baseline.Main)
		if len(targets) == 0 {
			continue
		}
		ext, err := slice.ExtractWith(inst.Baseline.Main, targets, workloads.ProfileOptions().Sync, inst.Counters,
			slice.Options{AllowUnproved: true})
		if err != nil {
			if errors.Is(err, slice.ErrUnsliceable) {
				continue
			}
			t.Fatalf("%s: extract: %v", e.Name, err)
		}
		swept++

		plain := analysis.ReportMinimality(ext.GhostPatterns)
		vs := analysis.ReportMinimalityVs(ext.GhostPatterns, ext.MainPatterns)
		if len(vs) < len(plain) {
			t.Errorf("%s: alias-upgraded minimality dropped base findings: %d -> %d", e.Name, len(plain), len(vs))
		}
		base := map[analysis.Finding]bool{}
		for _, f := range plain {
			base[f] = true
		}
		for _, f := range vs {
			if base[f] {
				continue
			}
			if f.Checker != "minimality-alias" || f.Severity != analysis.SevInfo {
				t.Errorf("%s: alias upgrade added a non-info or foreign finding: %s", e.Name, f.String())
			}
		}
	}
	if swept == 0 {
		t.Fatal("no sliceable workload swept")
	}
}

// TestMinimalityIsObservationOnly is the acceptance differential: running
// the lint battery with the minimality report between two simulations of
// the same ghost variant must leave every sim.Result field bit-identical
// — the static layer observes, it never perturbs.
func TestMinimalityIsObservationOnly(t *testing.T) {
	const name = "camel"
	build, err := workloads.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()

	run := func() sim.Result {
		inst := build(workloads.ProfileOptions())
		res, err := sim.RunProgram(cfg, inst.Mem, inst.Ghost.Main, inst.Ghost.Helpers)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.CheckFor("ghost")(inst.Mem); err != nil {
			t.Fatal(err)
		}
		return res
	}

	before := run()
	if _, err := Workload(name, Options{Minimality: true}); err != nil {
		t.Fatal(err)
	}
	after := run()

	if !reflect.DeepEqual(before, after) {
		t.Errorf("sim.Result changed across a lint run:\nbefore: %+v\nafter:  %+v", before, after)
	}
}
