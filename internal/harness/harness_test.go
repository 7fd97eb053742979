package harness

import (
	"math"
	"strings"
	"testing"

	"ghostthread/internal/core"
	"ghostthread/internal/sim"
)

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{2, 8}, 4},
		{[]float64{1, 1, 1}, 1},
		{[]float64{3}, 3},
		{nil, 0},
		{[]float64{0, 4}, 4}, // zeros ignored
	}
	for _, c := range cases {
		if got := Geomean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTable1Rendered(t *testing.T) {
	tab := Table1()
	for _, want := range []string{"GAP", "camel", "kangaroo", "hj8", "profiling"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestEvalNASISNegativeCase(t *testing.T) {
	// The paper's designed negative case: the heuristic must reject
	// NAS-IS (tiny histogram loop) and, with no parallel version, the
	// Ghost Threading bar equals the baseline.
	row, err := Eval("nas-is", sim.DefaultConfig(), core.DefaultHeuristicParams())
	if err != nil {
		t.Fatal(err)
	}
	if row.Targets != 0 {
		t.Errorf("nas-is selected %d targets, want 0 (paper §6.1)", row.Targets)
	}
	if row.Decision != core.UseBaseline {
		t.Errorf("nas-is decision = %s, want baseline", row.Decision)
	}
	if v := row.Speedup[TechGhost]; v != 1.0 {
		t.Errorf("nas-is ghost-threading speedup = %v, want exactly 1.0 (falls back to baseline)", v)
	}
	if _, ok := row.Unavailable[TechSMT]; !ok {
		t.Error("nas-is SMT OpenMP should be unavailable (requires rewriting)")
	}
	if v, ok := row.Speedup[TechSWPF]; !ok || v <= 0 {
		t.Errorf("nas-is SWPF speedup missing or bad: %v", v)
	}
}

func TestEvalCamelPositiveCase(t *testing.T) {
	// camel: high-CPI indirect load in a fat loop — the heuristic must
	// select it, and both SWPF and ghost threads must win big.
	row, err := Eval("camel", sim.DefaultConfig(), core.DefaultHeuristicParams())
	if err != nil {
		t.Fatal(err)
	}
	if row.Decision != core.UseGhost {
		t.Fatalf("camel decision = %s, want ghost", row.Decision)
	}
	if v := row.Speedup[TechSWPF]; v < 1.5 {
		t.Errorf("camel SWPF speedup = %.2f, want > 1.5", v)
	}
	if v := row.Speedup[TechGhost]; v < 1.5 {
		t.Errorf("camel ghost speedup = %.2f, want > 1.5", v)
	}
	if v := row.Speedup[TechCompiler]; v < 1.2 {
		t.Errorf("camel compiler-ghost speedup = %.2f, want > 1.2", v)
	}
	// Energy must track the speedup (figure 7's correlation).
	if s := row.EnergySaving[TechGhost]; s < 0.05 {
		t.Errorf("camel ghost energy saving = %.2f, want noticeably positive", s)
	}
}

func TestMatrixRendering(t *testing.T) {
	m, err := RunMatrix([]string{"camel", "nas-is"}, "idle", sim.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := m.RenderSpeedups()
	if !strings.Contains(sp, "camel*") {
		t.Errorf("selected workload not bold-marked:\n%s", sp)
	}
	if !strings.Contains(sp, "x") {
		t.Errorf("unavailable tick missing:\n%s", sp)
	}
	if !strings.Contains(sp, "geomean") {
		t.Error("geomean row missing")
	}
	en := m.RenderEnergy()
	if !strings.Contains(en, "energy saving") {
		t.Error("energy header missing")
	}
	csv := m.CSV()
	if !strings.Contains(csv, "workload,selected,swpf") {
		t.Error("CSV header missing")
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Errorf("CSV rows wrong:\n%s", csv)
	}
}

func TestFigure10SyncBoundsDistance(t *testing.T) {
	if testing.Short() {
		t.Skip("distance traces are slow")
	}
	with, err := Figure10(true, 50_000, 200)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Figure10(false, 50_000, 200)
	if err != nil {
		t.Fatal(err)
	}
	// One sample per full window boundary, from the first window on.
	for _, trace := range [][]DistanceSample{with, without} {
		for i, s := range trace {
			if want := int64(i+1) * 50_000; s.Cycle != want {
				t.Fatalf("sample %d at cycle %d, want %d", i, s.Cycle, want)
			}
		}
	}
	_, _, meanWith := Fig10Summary(with)
	_, _, meanWithout := Fig10Summary(without)
	// Without synchronization the distance runs away (paper fig 10a);
	// with it, the mean stays orders of magnitude smaller.
	if meanWithout < 10*meanWith {
		t.Errorf("sync had no effect on distance: with=%.0f without=%.0f", meanWith, meanWithout)
	}
}

func TestFigure3Winners(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 3 is slow")
	}
	// The motivation study's headline: each Camel form is won by a
	// different technique (paper figure 3).
	data, err := Figure3(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	winner := func(form string) string {
		best, name := 0.0, ""
		for tech, v := range data[form] {
			if v > best {
				best, name = v, tech
			}
		}
		return name
	}
	if w := winner("camel"); w != "swpf" {
		t.Errorf("camel won by %s, want swpf", w)
	}
	if w := winner("camel-par"); w != "smt-openmp" {
		t.Errorf("camel-par won by %s, want smt-openmp", w)
	}
	if w := winner("camel-ghost"); w != "ghost" {
		t.Errorf("camel-ghost won by %s, want ghost", w)
	}
	// And ghost threading must deliver a substantial win on its form.
	if v := data["camel-ghost"]["ghost"]; v < 1.8 {
		t.Errorf("camel-ghost ghost speedup %.2f, want > 1.8", v)
	}
}

func TestEvalBusyServerSelectsAtLeastAsMany(t *testing.T) {
	if testing.Short() {
		t.Skip("busy-vs-idle comparison is slow")
	}
	// Paper §6.3: the busy server pushes CPIs up, so the heuristic
	// selects at least as many targets for a memory-intensive workload.
	idle, err := Eval("hj8", sim.DefaultConfig(), core.DefaultHeuristicParams())
	if err != nil {
		t.Fatal(err)
	}
	busy, err := Eval("hj8", sim.BusyConfig(), core.DefaultHeuristicParams())
	if err != nil {
		t.Fatal(err)
	}
	if busy.Targets < idle.Targets {
		t.Errorf("busy server selected fewer targets (%d) than idle (%d)", busy.Targets, idle.Targets)
	}
}
