package ghostthread_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ghostthread/internal/core"
)

// This file checks EXPERIMENTS.md's "Reproduction status" table against
// the checked-in goldens that `make results-smoke` and `make fig9-smoke`
// diff the simulator against. A re-blessed golden that breaks a claim
// the document makes fails here, so the prose cannot drift from the
// numbers silently.

// matrixGolden is the part of a figure-6 or figure-8 golden
// (testdata/fig6_golden.json, fig8_golden.json) the claims read.
type matrixGolden struct {
	Rows          []goldenRow        `json:"rows"`
	Geomean       map[string]float64 `json:"geomean_speedup"`
	SelectedCount int                `json:"ghost_selected_count"`
}

// goldenRow is one workload's row of a matrixGolden.
type goldenRow struct {
	Workload      string             `json:"workload"`
	GhostSelected bool               `json:"ghost_selected"`
	Targets       int                `json:"targets"`
	Speedup       map[string]float64 `json:"speedup"`
	EnergySaving  map[string]float64 `json:"energy_saving"`
	Prefetch      map[string]struct {
		Issued int64 `json:"issued"`
	} `json:"prefetch"`
}

// trailingComma matches the commas the results filter strands before a
// closing brace when it drops the simulated-cycle lines.
var trailingComma = regexp.MustCompile(`,(\s*[}\]])`)

func loadMatrixGolden(t *testing.T, path string) matrixGolden {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g matrixGolden
	if err := json.Unmarshal(trailingComma.ReplaceAll(raw, []byte("$1")), &g); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

func loadFig6Golden(t *testing.T) matrixGolden {
	return loadMatrixGolden(t, "testdata/fig6_golden.json")
}

// energyGeomean is tech's geomean energy saving over every row: one
// minus the geomean of the energy ratios, as
// harness.Matrix.GeomeanSaving computes it.
func (g matrixGolden) energyGeomean(tech string) float64 {
	logSum := 0.0
	for _, r := range g.Rows {
		if s, ok := r.EnergySaving[tech]; ok {
			logSum += math.Log(1 - s)
		}
	}
	return 1 - math.Exp(logSum/float64(len(g.Rows)))
}

// row returns the golden's row for the named workload.
func (g matrixGolden) row(t *testing.T, workload string) map[string]float64 {
	t.Helper()
	for _, r := range g.Rows {
		if r.Workload == workload {
			return r.Speedup
		}
	}
	t.Fatalf("golden has no %s row", workload)
	return nil
}

// TestClaimsFigure6 checks the figure-6 and §6.1 rows of the status
// table on the idle-server golden.
func TestClaimsFigure6(t *testing.T) {
	g := loadFig6Golden(t)
	const (
		swpf     = "swpf"
		smt      = "smt-openmp"
		ghost    = "ghost-threading"
		compiler = "compiler-ghost"
	)

	// Geomean order: Ghost > SMT > Compiler ≈ SWPF. "≈" is the paper's
	// own gap between the two (1.11 vs 1.06, under 5%).
	gm := g.Geomean
	if !(gm[ghost] > gm[smt] && gm[smt] > gm[compiler]) {
		t.Errorf("geomeans ghost %.3f, smt %.3f, compiler %.3f: want Ghost > SMT > Compiler",
			gm[ghost], gm[smt], gm[compiler])
	}
	if r := gm[compiler] / gm[swpf]; math.Abs(r-1) > 0.05 {
		t.Errorf("compiler geomean %.3f vs swpf %.3f (ratio %.3f): want Compiler ≈ SWPF within 5%%",
			gm[compiler], gm[swpf], r)
	}

	// Ghost selected on at least the paper's 19 of 34 workloads.
	selected := 0
	for _, r := range g.Rows {
		if r.GhostSelected {
			selected++
		}
	}
	if len(g.Rows) != 34 || selected < 19 || selected != g.SelectedCount {
		t.Errorf("ghost selected on %d of %d rows (count field %d): want >= 19 of 34",
			selected, len(g.Rows), g.SelectedCount)
	}

	for _, r := range g.Rows {
		s := r.Speedup
		kernel, _, _ := strings.Cut(r.Workload, ".")
		switch {
		case r.Workload == "nas-is":
			// The heuristic's designed negative case: no targets, no
			// parallel variant to fall back to, so exactly the baseline.
			if r.GhostSelected || r.Targets != 0 || s[ghost] != 1 || s[compiler] != 1 {
				t.Errorf("nas-is: selected %v, %d targets, ghost %v, compiler %v: want no ghost at exactly 1.00",
					r.GhostSelected, r.Targets, s[ghost], s[compiler])
			}
		case r.Workload == "pr.kron":
			// No targets: the ghost column falls back to SMT OpenMP's run.
			if r.GhostSelected || r.Targets != 0 || s[ghost] != s[smt] {
				t.Errorf("pr.kron: selected %v, %d targets, ghost %v vs smt %v: want the OpenMP fallback",
					r.GhostSelected, r.Targets, s[ghost], s[smt])
			}
		case r.GhostSelected && (kernel == "bfs" || kernel == "hj2" || kernel == "hj8"):
			// §6.1: compiler ghosts are slower than manual on bfs and hj.
			if s[compiler] >= s[ghost] {
				t.Errorf("%s: compiler %.3f >= manual %.3f: want compiler slower", r.Workload, s[compiler], s[ghost])
			}
		}
		// No silent compiler ghost: every selected row's compiler ghost
		// issues prefetches.
		if r.GhostSelected && r.Prefetch[compiler].Issued == 0 {
			t.Errorf("%s: selected, but its compiler ghost issued no prefetch", r.Workload)
		}
	}
}

// TestClaimsFigure9 checks the figure-9 row of the status table on the
// multi-core golden: Ghost Threading beats SMT OpenMP at every core
// count, and its gain shrinks as cores are added.
func TestClaimsFigure9(t *testing.T) {
	raw, err := os.ReadFile("testdata/fig9_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Geomean map[string]map[string]float64 `json:"geomean"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("fig9 golden: %v", err)
	}
	ghost, smt := g.Geomean["ghost-threading"], g.Geomean["smt-openmp"]
	cores := []string{"1", "2", "4"}
	for i, c := range cores {
		if _, ok := ghost[c]; !ok {
			t.Fatalf("fig9 golden has no %s-core ghost geomean", c)
		}
		if ghost[c] <= smt[c] {
			t.Errorf("%s cores: ghost %.3f <= smt-openmp %.3f", c, ghost[c], smt[c])
		}
		if i > 0 && ghost[c] > ghost[cores[i-1]] {
			t.Errorf("ghost gain grows from %s to %s cores (%.3f -> %.3f): want it to shrink",
				cores[i-1], c, ghost[cores[i-1]], ghost[c])
		}
	}
}

// experimentsSection returns the lines of EXPERIMENTS.md from the heading
// through the line before the next "## " heading.
func experimentsSection(t *testing.T, heading string) []string {
	t.Helper()
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(raw), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	if i := strings.Index(rest, "\n## "); i >= 0 {
		rest = rest[:i]
	}
	return strings.Split(rest, "\n")
}

// tableCells splits a markdown table row into trimmed cells with the
// bold markers removed.
func tableCells(line string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i, c := range cells {
		cells[i] = strings.Trim(strings.TrimSpace(c), "*")
	}
	return cells
}

// TestClaimsFigure3Table checks that EXPERIMENTS.md's figure-3 table
// quotes the nine speedups testdata/fig3_golden.txt pins, in the same
// rounding.
func TestClaimsFigure3Table(t *testing.T) {
	raw, err := os.ReadFile("testdata/fig3_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 4 && strings.HasPrefix(f[0], "camel") {
			want[f[0]] = f[1:]
		}
	}
	if len(want) != 3 {
		t.Fatalf("fig3 golden has %d camel rows, want 3", len(want))
	}
	seen := 0
	for _, line := range experimentsSection(t, "## Figure 3 — motivation (three Camel forms)") {
		c := tableCells(line)
		w, ok := want[c[0]]
		if !ok || len(c) < 4 {
			continue
		}
		seen++
		for i, col := range []string{"swpf", "smt-openmp", "ghost"} {
			if c[i+1] != w[i] {
				t.Errorf("figure-3 table: %s %s is %s, golden says %s", c[0], col, c[i+1], w[i])
			}
		}
	}
	if seen != 3 {
		t.Errorf("figure-3 table has %d of the golden's 3 rows", seen)
	}
}

// TestClaimsIdleHeadlineRatios checks the idle rows of the headline
// ratio table against the figure-6 golden: the speedup rows are ratios
// of its geomeans, and the energy rows compare its figure-7 energy
// geomeans as 1 − (1 − S_ghost)/(1 − S_other), the form that gives the
// paper's own 11% and 5%.
func TestClaimsIdleHeadlineRatios(t *testing.T) {
	g := loadFig6Golden(t)
	gm := g.Geomean
	energyVs := func(other string) string {
		return fmt.Sprintf("%.1f%%", 100*(1-(1-g.energyGeomean("ghost-threading"))/(1-g.energyGeomean(other))))
	}
	checkHeadlineRows(t, map[string]string{
		"Ghost vs SWPF (idle)":         fmt.Sprintf("%.2f×", gm["ghost-threading"]/gm["swpf"]),
		"Ghost vs SMT OpenMP (idle)":   fmt.Sprintf("%.2f×", gm["ghost-threading"]/gm["smt-openmp"]),
		"energy saving vs SWPF (idle)": energyVs("swpf"),
		"energy saving vs SMT (idle)":  energyVs("smt-openmp"),
	})
}

// checkHeadlineRows checks that each named row of the headline ratio
// table quotes its wanted value in the measured column.
func checkHeadlineRows(t *testing.T, want map[string]string) {
	t.Helper()
	seen := 0
	for _, line := range experimentsSection(t, "## Headline §6.1 / §6.3 ratios") {
		c := tableCells(line)
		w, ok := want[c[0]]
		if !ok || len(c) < 3 {
			continue
		}
		seen++
		if c[2] != w {
			t.Errorf("headline %s: table says %s, golden gives %s", c[0], c[2], w)
		}
	}
	if seen != len(want) {
		t.Errorf("headline table has %d of the %d rows checked against the golden", seen, len(want))
	}
}

// TestClaimsFigure8 checks the figure-8 status row, the figure-8 geomean
// table and the busy rows of the headline ratio table against the
// busy-server golden, testdata/fig8_golden.json: Ghost's idle-to-busy
// geomeans, the idle-to-busy selection counts, and camel's SWPF and Ghost
// speedups under pressure, which do not flip the paper's way.
func TestClaimsFigure8(t *testing.T) {
	idle, busy := loadFig6Golden(t), loadMatrixGolden(t, "testdata/fig8_golden.json")
	const (
		swpf  = "swpf"
		smt   = "smt-openmp"
		ghost = "ghost-threading"
	)
	gm := busy.Geomean
	camel := busy.row(t, "camel")
	if camel[ghost] >= camel[swpf] {
		t.Errorf("busy camel: ghost %.3f >= swpf %.3f, but the status row says camel does not flip",
			camel[ghost], camel[swpf])
	}
	status := statusRow(t, "Figure 8")[2]
	for _, quoted := range []string{
		fmt.Sprintf("Ghost rises %.2f→%.2f", idle.Geomean[ghost], gm[ghost]),
		fmt.Sprintf("selections %d→%d", idle.SelectedCount, busy.SelectedCount),
		fmt.Sprintf("camel does not flip (%.2f SWPF vs %.2f Ghost under pressure)", camel[swpf], camel[ghost]),
	} {
		if !strings.Contains(status, quoted) {
			t.Errorf("figure-8 status row %q does not say %q", status, quoted)
		}
	}

	techs := map[string]string{
		"SWPF":            swpf,
		"SMT OpenMP":      smt,
		"Ghost Threading": ghost,
		"Compiler ghosts": "compiler-ghost",
	}
	seen := 0
	for _, line := range experimentsSection(t, "## Figure 8 — busy-server speedups") {
		c := tableCells(line)
		if key, ok := techs[c[0]]; ok && len(c) == 3 {
			seen++
			if want := fmt.Sprintf("%.2f×", gm[key]); c[2] != want {
				t.Errorf("figure-8 table: %s is %s, golden says %s", c[0], c[2], want)
			}
		}
	}
	if seen != len(techs) {
		t.Errorf("figure-8 table has %d of the %d technique rows", seen, len(techs))
	}

	checkHeadlineRows(t, map[string]string{
		"Ghost vs SWPF (busy)":       fmt.Sprintf("%.2f×", gm[ghost]/gm[swpf]),
		"Ghost vs SMT OpenMP (busy)": fmt.Sprintf("%.2f×", gm[ghost]/gm[smt]),
	})
}

// TestClaimsFigure9Table checks that EXPERIMENTS.md's figure-9 geomean
// table quotes testdata/fig9_golden.json's geomeans, and Ghost
// Threading's no-omp column, at two decimals.
func TestClaimsFigure9Table(t *testing.T) {
	raw, err := os.ReadFile("testdata/fig9_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Geomean map[string]map[string]float64 `json:"geomean"`
		NoOMP   float64                       `json:"no_omp"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("fig9 golden: %v", err)
	}
	seen := 0
	for _, line := range experimentsSection(t, "## Figure 9 — multi-core scaling (bfs, cc, pr × 5 graphs)") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		gm, ok := g.Geomean[f[0]]
		if !ok {
			continue
		}
		seen++
		noOMP := "-"
		if f[0] == "ghost-threading" {
			noOMP = fmt.Sprintf("%.2f", g.NoOMP)
		}
		want := []string{noOMP, fmt.Sprintf("%.2f", gm["1"]), fmt.Sprintf("%.2f", gm["2"]), fmt.Sprintf("%.2f", gm["4"])}
		for i, col := range []string{"no-omp", "1c", "2c", "4c"} {
			if f[i+1] != want[i] {
				t.Errorf("figure-9 table: %s %s is %s, golden says %s", f[0], col, f[i+1], want[i])
			}
		}
	}
	if seen != len(g.Geomean) {
		t.Errorf("figure-9 table has %d of the golden's %d technique rows", seen, len(g.Geomean))
	}
}

// statusRow returns the cells of the reproduction-status row for the
// named experiment.
func statusRow(t *testing.T, experiment string) []string {
	t.Helper()
	for _, line := range experimentsSection(t, "## Reproduction status summary") {
		if c := tableCells(line); len(c) == 3 && c[0] == experiment {
			return c
		}
	}
	t.Fatalf("status table has no %q row", experiment)
	return nil
}

// TestClaimsFigure7 checks the figure-7 energy geomeans, in the status
// row and in the figure-7 table, against the savings the figure-6
// golden records per row: one minus the geomean of the energy ratios,
// as harness.Matrix.GeomeanSaving computes them.
func TestClaimsFigure7(t *testing.T) {
	g := loadFig6Golden(t)
	techs := []struct{ key, label string }{
		{"swpf", "SWPF"},
		{"smt-openmp", "SMT OpenMP"},
		{"ghost-threading", "Ghost Threading"},
		{"compiler-ghost", "Compiler ghosts"},
	}
	want := make([]string, len(techs))
	for i, tc := range techs {
		want[i] = fmt.Sprintf("%.1f", 100*g.energyGeomean(tc.key))
	}

	status := statusRow(t, "Figure 7")[2]
	if quoted := strings.Join(want, " / ") + " %"; !strings.Contains(status, quoted) {
		t.Errorf("figure-7 status row %q does not quote the golden's %s", status, quoted)
	}
	seen := 0
	for _, line := range experimentsSection(t, "## Figure 7 — idle-server package energy savings") {
		c := tableCells(line)
		for i, tc := range techs {
			if len(c) == 3 && c[0] == tc.label {
				seen++
				if c[2] != want[i]+"%" {
					t.Errorf("figure-7 table: %s is %s, golden says %s%%", tc.label, c[2], want[i])
				}
			}
		}
	}
	if seen != len(techs) {
		t.Errorf("figure-7 table has %d of the %d technique rows", seen, len(techs))
	}
}

// fig10Summary matches a summary line of testdata/fig10_golden.txt.
var fig10Summary = regexp.MustCompile(`^(with|without) sync: +min=(\d+) max=(\d+) mean=(\d+) over \d+ samples$`)

// TestClaimsFigure10 checks the figure-10 status row and table against
// figure 10(a) in testdata/fig10_golden.txt: both mean distances, their
// ratio, and the synchronised maximum's overshoot of the default TooFar
// threshold.
func TestClaimsFigure10(t *testing.T) {
	raw, err := os.ReadFile("testdata/fig10_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The status row and table quote panel (a), the coarse-window run.
	panelA, _, _ := strings.Cut(string(raw), "\nFigure 10(b)")
	stats := map[string][3]int64{} // min, max, mean
	for _, line := range strings.Split(panelA, "\n") {
		m := fig10Summary.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var v [3]int64
		for i := range v {
			v[i], _ = strconv.ParseInt(m[i+2], 10, 64)
		}
		stats[m[1]] = v
	}
	with, ok1 := stats["with"]
	without, ok2 := stats["without"]
	if !ok1 || !ok2 {
		t.Fatalf("fig10 golden lacks a with/without summary line: %v", stats)
	}
	tooFar := core.DefaultSyncParams().TooFar
	ratio := int64(math.Round(float64(without[2])/float64(with[2])/10)) * 10

	status := statusRow(t, "Figure 10")[2]
	for _, quoted := range []string{
		fmt.Sprintf("mean distance %s vs %d synchronised", commas(without[2]), with[2]),
		fmt.Sprintf("about %s×", commas(ratio)),
		fmt.Sprintf("stay in %d–%d", with[0], with[1]),
		fmt.Sprintf("TooFar = %d", tooFar),
		fmt.Sprintf("overshot by up to %d", with[1]-tooFar),
	} {
		if !strings.Contains(status, quoted) {
			t.Errorf("figure-10 status row %q does not say %q", status, quoted)
		}
	}
	if with[1] <= tooFar {
		t.Errorf("synchronised maximum %d does not exceed TooFar = %d, as the status row says", with[1], tooFar)
	}

	want := map[string]string{
		"with synchronization":    fmt.Sprintf("%s (%d–%s)", commas(with[2]), with[0], commas(with[1])),
		"without synchronization": fmt.Sprintf("%s (%d–%s)", commas(without[2]), without[0], commas(without[1])),
	}
	seen := 0
	for _, line := range experimentsSection(t, "## Figure 10 — inter-thread distance (cc.urand, Afforest link loop)") {
		c := tableCells(line)
		if w, ok := want[c[0]]; ok && len(c) == 3 {
			seen++
			if c[1] != w {
				t.Errorf("figure-10 table: %s mean distance is %q, golden says %q", c[0], c[1], w)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("figure-10 table has %d of the %d configuration rows", seen, len(want))
	}
}

// commas renders n with thousands separators, as EXPERIMENTS.md does.
func commas(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
