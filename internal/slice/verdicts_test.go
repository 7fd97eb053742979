package slice_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/core"
	"ghostthread/internal/lint"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/compiler_verdicts_golden.json from the current extractor")

const verdictsGolden = "testdata/compiler_verdicts_golden.json"

// compilerVerdicts is one golden entry: the outcome of extracting a
// workload's compiler slice.
type compilerVerdicts struct {
	Workload   string              `json:"workload"`
	PerPhase   bool                `json:"per_phase"`
	SpawnDepth int                 `json:"spawn_depth"`
	Region     string              `json:"region,omitempty"`
	Err        string              `json:"error,omitempty"`
	Verdicts   []*analysis.Verdict `json:"verdicts,omitempty"`
}

// TestCompilerVerdictsGolden pins the translation-validation verdicts of
// every registered workload's compiler slice (profile scale, static
// targets, AllowUnproved), with and without the per-phase cut, against a
// checked-in golden. Whole-region slices are also extracted at every
// spawn depth core.SelectTargets can choose (each loop strictly between
// the outermost loop and the target loop), and each of those must
// prove: the rule may pick any of them from a profile. The golden guards
// the validator's exact output: status, matched PCs, leads, skip and
// speculation points, unfold labels and rendered expressions. Re-bless
// after a reviewed change with
//
//	go test ./internal/slice -run TestCompilerVerdictsGolden -update
func TestCompilerVerdictsGolden(t *testing.T) {
	var got []compilerVerdicts
	for _, e := range workloads.Entries() {
		wopts := workloads.ProfileOptions()
		inst := e.Build(wopts)
		base := inst.Baseline.Main
		targets := lint.StaticTargets(base)
		extract := func(perPhase bool, depth int) {
			entry := compilerVerdicts{Workload: e.Name, PerPhase: perPhase, SpawnDepth: depth}
			ts := append([]core.Target(nil), targets...)
			if len(ts) > 0 {
				ts[0].SpawnDepth = depth
			}
			ext, err := slice.ExtractWith(base, ts, wopts.Sync, inst.Counters,
				slice.Options{AllowUnproved: true, PerPhase: perPhase})
			if err != nil {
				entry.Err = err.Error()
			} else {
				entry.Region = base.Loops[ext.RegionLoop].Name
				entry.Verdicts = ext.Verdicts
			}
			if depth > 0 && (err != nil || !proved(ext.Verdicts)) {
				t.Errorf("%s: spawn depth %d region %q does not prove: %v", e.Name, depth, entry.Region, err)
			}
			got = append(got, entry)
		}
		extract(false, 0)
		extract(true, 0)
		if len(targets) > 0 {
			l := targets[0].LoopID
			for d := 1; core.SpawnLoop(base.Loops, core.Target{LoopID: l, SpawnDepth: d}) != l; d++ {
				extract(false, d)
			}
		}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	if *update {
		if err := os.WriteFile(verdictsGolden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictsGolden)
	if err != nil {
		t.Fatalf("%v (bless with -update)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("compiler verdicts drifted from %s:\n%s", verdictsGolden, firstDiff(want, raw))
	}
}

// proved reports whether every verdict proves its spawn site.
func proved(vs []*analysis.Verdict) bool {
	for _, v := range vs {
		if v.Status == analysis.Unproved {
			return false
		}
	}
	return len(vs) > 0
}

// firstDiff renders the first differing line of two texts with its
// line number, enough to locate the drift in a large golden.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want: %s\n   got: %s", i+1, w, g)
		}
	}
	return "(no line differs)"
}

// TestHJ8ExtractionAllocs bounds the allocations of hj8's compiler
// extraction. hj8's hash rounds make its address expressions DAGs that
// unroll to exponential size as trees; the ghost-to-main rewrite must
// visit each shared node once, not walk the tree (18M allocations). The
// extraction also analyses each program once: the slicer reads the base
// program's def-use off its SSA, and the safety plan and the validator
// share the ghost's analysis (about 7.0k allocations in all; a second
// analysis framework, such as an iterative reaching-definitions pass,
// doubles that). Allocation counts are deterministic where wall time is
// not, so the bound catches a lost memo or a duplicated analysis on any
// host.
func TestHJ8ExtractionAllocs(t *testing.T) {
	build, err := workloads.Lookup("hj8")
	if err != nil {
		t.Fatal(err)
	}
	wopts := workloads.ProfileOptions()
	inst := build(wopts)
	base := inst.Baseline.Main
	targets := lint.StaticTargets(base)
	var extErr error
	allocs := testing.AllocsPerRun(1, func() {
		_, extErr = slice.ExtractWith(base, targets, wopts.Sync, inst.Counters,
			slice.Options{AllowUnproved: true})
	})
	if extErr != nil {
		t.Fatal(extErr)
	}
	t.Logf("hj8 compiler extraction: %.0f allocations", allocs)
	const bound = 10_000
	if allocs > bound {
		t.Fatalf("hj8 compiler extraction made %.0f allocations, bound %d", allocs, bound)
	}
}
