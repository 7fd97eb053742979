package slice_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/lint"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/compiler_verdicts_golden.json from the current extractor")

const verdictsGolden = "testdata/compiler_verdicts_golden.json"

// internRef matches an interned sub-expression reference in rendered
// expressions. The IDs come from a process-global table filled in
// first-use order, so they depend on which tests ran before; the golden
// compares them as one placeholder.
var internRef = regexp.MustCompile(`#[0-9]+`)

// compilerVerdicts is one golden entry: the outcome of extracting a
// workload's compiler slice.
type compilerVerdicts struct {
	Workload string              `json:"workload"`
	PerPhase bool                `json:"per_phase"`
	Err      string              `json:"error,omitempty"`
	Verdicts []*analysis.Verdict `json:"verdicts,omitempty"`
}

// TestCompilerVerdictsGolden pins the translation-validation verdicts of
// every registered workload's compiler slice (profile scale, static
// targets, AllowUnproved), with and without the per-phase cut, against a
// checked-in golden. It guards the validator's exact output: status,
// matched PCs, leads, skip and speculation points, unfold labels and
// rendered expressions. Re-bless after a reviewed change with
//
//	go test ./internal/slice -run TestCompilerVerdictsGolden -update
func TestCompilerVerdictsGolden(t *testing.T) {
	var got []compilerVerdicts
	for _, e := range workloads.Entries() {
		for _, perPhase := range []bool{false, true} {
			wopts := workloads.ProfileOptions()
			inst := e.Build(wopts)
			base := inst.Baseline.Main
			entry := compilerVerdicts{Workload: e.Name, PerPhase: perPhase}
			ext, err := slice.ExtractWith(base, lint.StaticTargets(base), wopts.Sync, inst.Counters,
				slice.Options{AllowUnproved: true, PerPhase: perPhase})
			if err != nil {
				entry.Err = err.Error()
			} else {
				entry.Verdicts = ext.Verdicts
			}
			got = append(got, entry)
		}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(internRef.ReplaceAll(raw, []byte("#N")), '\n')

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
// visit each shared node once (about 27k allocations in all), not walk
// the tree (18M). Allocation counts are deterministic where wall time is
// not, so the bound catches a lost memo on any host.
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
	const bound = 200_000
	if allocs > bound {
		t.Fatalf("hj8 compiler extraction made %.0f allocations, bound %d", allocs, bound)
	}
}
