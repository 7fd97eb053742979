package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sort"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/target_classes_golden.json from the current address-pattern analysis")

const classesGolden = "testdata/target_classes_golden.json"

// targetClass is the address-pattern classification of one annotated
// target load.
type targetClass struct {
	PC     int    `json:"pc"`
	Loop   string `json:"loop"` // innermost annotated loop name
	Class  string `json:"class"`
	Depth  int    `json:"depth,omitempty"` // indirect depth
	Stride int64  `json:"stride,omitempty"`
}

// workloadClasses is one golden entry: every annotated target of a
// workload's baseline program, in PC order.
type workloadClasses struct {
	Workload string        `json:"workload"`
	Targets  []targetClass `json:"targets"`
}

// classify runs analysis.PatternAt over every annotated target of a
// registered workload's baseline program, at profile scale.
func classify(t *testing.T, name string) workloadClasses {
	t.Helper()
	build, err := workloads.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	base := build(workloads.ProfileOptions()).Baseline.Main
	wc := workloadClasses{Workload: name, Targets: []targetClass{}}
	targets := StaticTargets(base)
	if len(targets) == 0 {
		return wc
	}
	pt := analysis.AnalyzeAddrPatterns(base)
	for _, tg := range targets {
		ap := pt.PatternAt(tg.LoadPC)
		tc := targetClass{PC: tg.LoadPC, Class: ap.Class.String(),
			Depth: ap.IndirectDepth, Stride: ap.Stride}
		if l := base.InnermostLoop(tg.LoadPC); l != nil {
			tc.Loop = l.Name
		}
		wc.Targets = append(wc.Targets, tc)
	}
	sort.Slice(wc.Targets, func(i, j int) bool { return wc.Targets[i].PC < wc.Targets[j].PC })
	return wc
}

// TestTargetClassesGolden pins the stride class, indirect depth and
// stride of every annotated target across the registry against a
// checked-in golden. Re-bless after a reviewed change with
//
//	go test ./internal/lint -run TestTargetClassesGolden -update
func TestTargetClassesGolden(t *testing.T) {
	var got []workloadClasses
	for _, e := range workloads.Entries() {
		got = append(got, classify(t, e.Name))
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *update {
		if err := os.WriteFile(classesGolden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(classesGolden)
	if err != nil {
		t.Fatalf("%v (bless with -update)", err)
	}
	if !bytes.Equal(raw, want) {
		var old []workloadClasses
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i >= len(old) || !reflect.DeepEqual(old[i], got[i]) {
				t.Fatalf("target classes drifted from %s at entry %d:\n got: %+v", classesGolden, i, got[i])
			}
		}
		t.Fatalf("target classes drifted from %s: %d entries, golden has %d", classesGolden, len(got), len(old))
	}
}

// TestAdviseSweepClassesTotal classifies every registered workload's
// annotated targets and checks the classification is total: every
// target lands in one of the five stride classes — "unknown" is not an
// answer the taxonomy may give.
func TestAdviseSweepClassesTotal(t *testing.T) {
	valid := map[string]bool{
		"invariant": true, "affine": true, "computed": true,
		"indirect": true, "pointer-chase": true,
	}
	for _, e := range workloads.Entries() {
		wc := classify(t, e.Name)
		for _, tc := range wc.Targets {
			if !valid[tc.Class] {
				t.Errorf("%s pc %d: class %q outside the taxonomy", wc.Workload, tc.PC, tc.Class)
			}
		}
	}
}

// TestAdviseKnownShapes pins the classification of the structurally
// distinctive workloads: the pointer-walk benchmarks are indirect, the
// arithmetic camel variant is computed (helpable by inline prefetching),
// triangle counting's binary search is a pointer chase, and the graph
// kernels carry their known indirection depths.
func TestAdviseKnownShapes(t *testing.T) {
	cases := []struct {
		name  string
		class string
		depth int
	}{
		{"camel", "indirect", 1},
		{"camel-par", "computed", 0},
		{"hj8", "indirect", 1},
		{"tc.road", "pointer-chase", 0},
		{"tc.kron", "pointer-chase", 0},
		{"bfs.road", "indirect", 3},
		{"sssp.road", "indirect", 3},
		{"pr.road", "indirect", 2},
	}
	for _, c := range cases {
		wc := classify(t, c.name)
		if len(wc.Targets) == 0 {
			t.Errorf("%s: no targets", c.name)
			continue
		}
		tc := wc.Targets[0]
		if tc.Class != c.class || tc.Depth != c.depth {
			t.Errorf("%s: class %s depth %d, want %s depth %d", c.name, tc.Class, tc.Depth, c.class, c.depth)
		}
	}

	// kangaroo chains two targets: the hop table at depth 1 feeds the
	// landing load at depth 2.
	depths := map[int]bool{}
	for _, tc := range classify(t, "kangaroo").Targets {
		if tc.Class != "indirect" {
			t.Errorf("kangaroo target pc %d: class %s, want indirect", tc.PC, tc.Class)
		}
		depths[tc.Depth] = true
	}
	if !depths[1] || !depths[2] {
		t.Errorf("kangaroo indirect depths %v, want both 1 and 2", depths)
	}
}
