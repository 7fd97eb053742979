package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"ghostthread/internal/core"
	"ghostthread/internal/harness"
)

// rowRecord is the comparable form of one reported result row. The
// measured pass derives it from the product's output and the traced walk
// builds it from its own calls; the agreement check requires the two to
// be identical, bit for bit.
type rowRecord struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind,omitempty"` // governed rows: "manual" | "compiler"

	Decision string `json:"decision,omitempty"` // fig6: the heuristic's ghost-vs-OpenMP choice
	Targets  int    `json:"targets,omitempty"`

	BaselineCycles int64              `json:"baseline_cycles"`
	Cycles         map[string]int64   `json:"cycles"`  // column -> simulated cycles
	Speedup        map[string]float64 `json:"speedup"` // column -> baseline/column cycles
	Issued         map[string]int64   `json:"issued"`  // column -> prefetches issued (columns that prefetched)
	Unavailable    []string           `json:"unavailable,omitempty"`

	Kills    int64  `json:"kills,omitempty"`
	Respawns int64  `json:"respawns,omitempty"`
	Retunes  int64  `json:"retunes,omitempty"`
	Err      string `json:"err,omitempty"`
}

func newRecord(workload string) rowRecord {
	return rowRecord{Workload: workload, Cycles: map[string]int64{},
		Speedup: map[string]float64{}, Issued: map[string]int64{}}
}

// fig6Record converts a harness.Row. The row reports speedups, not
// cycles; base/speedup is exact to far better than half a cycle, so
// rounding recovers the simulated cycle count.
func fig6Record(r *harness.Row) rowRecord {
	rec := newRecord(r.Workload)
	rec.Decision = r.Decision.String()
	rec.Targets = r.Targets
	rec.BaselineCycles = r.BaselineCycles
	for tech, s := range r.Speedup {
		rec.Speedup[tech] = s
		rec.Cycles[tech] = int64(math.Round(float64(r.BaselineCycles) / s))
	}
	for tech, p := range r.Prefetch {
		rec.Issued[tech] = p.Issued
	}
	for tech := range r.Unavailable {
		rec.Unavailable = append(rec.Unavailable, tech)
	}
	sort.Strings(rec.Unavailable)
	return rec
}

// govRecord converts a harness.GovRow.
func govRecord(r harness.GovRow) rowRecord {
	rec := newRecord(r.Workload)
	rec.Kind = r.Kind
	rec.BaselineCycles = r.BaselineCycles
	rec.Err = r.Err
	if r.Err == "" {
		rec.Cycles["static"] = r.StaticCycles
		rec.Cycles["governed"] = r.GovernedCycles
		rec.Speedup["static"] = r.StaticSpeedup
		rec.Speedup["governed"] = r.GovernedSpeedup
	}
	rec.Kills, rec.Respawns, rec.Retunes = r.Kills, r.Respawns, r.Retunes
	return rec
}

// expectedX is the one 'x' tick that is not a failure: a workload with
// no OpenMP version (harness.Eval's reason string).
const expectedX = "requires code rewriting"

// columnProgram names the program that produced a fig6 column, following
// harness.Eval's fallbacks: the ghost column runs the OpenMP variant (or
// the baseline) when the heuristic did not pick ghosts, and the compiler
// column does the same when no targets were selected.
func columnProgram(rec rowRecord, tech string) string {
	fallback := "baseline"
	if rec.Decision == core.UseParallel.String() {
		fallback = harness.TechSMT
	}
	switch tech {
	case harness.TechGhost:
		if rec.Decision == core.UseGhost.String() {
			return "ghost"
		}
		return fallback
	case harness.TechCompiler:
		if rec.Targets > 0 {
			return "compiler"
		}
		return fallback
	}
	return tech
}

func available(rec rowRecord, tech string) bool {
	_, ok := rec.Speedup[tech]
	return ok
}

// fig6Runs lists the simulations behind fig6 records (profile cycles per
// workload supplied separately), keyed by the program each column ran.
func fig6Runs(recs []rowRecord, profile map[string]int64) []simRun {
	var runs []simRun
	for _, rec := range recs {
		runs = append(runs, simRun{rec.Workload + "/profile", profile[rec.Workload]},
			simRun{rec.Workload + "/baseline", rec.BaselineCycles})
		for _, tech := range harness.Techniques {
			if available(rec, tech) {
				runs = append(runs, simRun{rec.Workload + "/" + columnProgram(rec, tech), rec.Cycles[tech]})
			}
		}
	}
	return runs
}

// fig6GhostRuns lists the ghost and compiler columns of fig6 records.
func fig6GhostRuns(recs []rowRecord) []ghostRun {
	var runs []ghostRun
	for _, rec := range recs {
		for _, tech := range []string{harness.TechGhost, harness.TechCompiler} {
			prog := columnProgram(rec, tech)
			runs = append(runs, ghostRun{
				Helper: available(rec, tech) && (prog == "ghost" || prog == "compiler"),
				Issued: rec.Issued[tech],
			})
		}
	}
	return runs
}

// fig6Geomean is a column's geomean over fig6 records.
func fig6Geomean(recs []rowRecord, tech string) float64 {
	vals := make([]float64, len(recs))
	ok := make([]bool, len(recs))
	for i, rec := range recs {
		vals[i], ok[i] = rec.Speedup[tech], available(rec, tech)
	}
	return geomean(vals, ok)
}

// fig6Attempts counts the technique cells attempted and failed: the
// baseline plus four columns per row, minus the expected 'x'.
func fig6Attempts(recs []rowRecord, reasons map[string]map[string]string) (attempted, failed int) {
	for _, rec := range recs {
		attempted++
		for _, tech := range harness.Techniques {
			reason, missing := reasons[rec.Workload][tech]
			switch {
			case !missing:
				attempted++
			case reason != expectedX:
				attempted++
				failed++
			}
		}
	}
	return attempted, failed
}

// govRuns lists the simulations behind governed rows: the baseline once
// per workload (both kinds re-simulate it), static and governed runs per
// kind, and the profile behind the compiler kind.
func govRuns(recs []rowRecord, profile map[string]int64) []simRun {
	var runs []simRun
	for _, rec := range recs {
		if rec.Err != "" {
			continue
		}
		if rec.Kind == "compiler" {
			runs = append(runs, simRun{rec.Workload + "/profile", profile[rec.Workload]})
		}
		runs = append(runs, simRun{rec.Workload + "/baseline", rec.BaselineCycles},
			simRun{rec.Workload + "/" + rec.Kind + "/static", rec.Cycles["static"]},
			simRun{rec.Workload + "/" + rec.Kind + "/governed", rec.Cycles["governed"]})
	}
	return runs
}

// govGeomean is the governed-speedup geomean over rows of the given kind
// ("" = every row); an errored row counts as unavailable.
func govGeomean(recs []rowRecord, kind string) float64 {
	var vals []float64
	var ok []bool
	for _, rec := range recs {
		if kind != "" && rec.Kind != kind {
			continue
		}
		vals = append(vals, rec.Speedup["governed"])
		ok = append(ok, rec.Err == "")
	}
	return geomean(vals, ok)
}

// sameRecords reports the first difference between two record lists.
func sameRecords(got, want []rowRecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		a, err := json.Marshal(got[i])
		if err != nil {
			return err
		}
		b, err := json.Marshal(want[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("row %s differs:\n got %s\nwant %s", got[i].Workload, a, b)
		}
	}
	return nil
}

// ledgerRow is the part of a BENCH_fig6.json row the cross-check reads.
type ledgerRow struct {
	Workload string             `json:"workload"`
	Speedup  map[string]float64 `json:"speedup"`
	Prefetch map[string]struct {
		Issued int64 `json:"issued"`
	} `json:"prefetch"`
}

// checkLedger compares fig6 records with the rows of the perf ledger at
// path and returns how many rows it checked. A missing or unreadable
// ledger, or one without these rows, checks none; a row that differs is an
// error.
func checkLedger(path string, recs []rowRecord) (checked int, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil
	}
	var ledger struct {
		Rows []ledgerRow `json:"rows"`
	}
	if json.Unmarshal(b, &ledger) != nil {
		return 0, nil
	}
	byName := map[string]rowRecord{}
	for _, rec := range recs {
		byName[rec.Workload] = rec
	}
	for _, lr := range ledger.Rows {
		rec, ok := byName[lr.Workload]
		if !ok {
			continue
		}
		checked++
		if len(lr.Speedup) != len(rec.Speedup) || len(lr.Prefetch) != len(rec.Issued) {
			return checked, fmt.Errorf("ledger row %s has other columns than this tree", lr.Workload)
		}
		for tech, s := range lr.Speedup {
			if got, ok := rec.Speedup[tech]; !ok || got != s {
				return checked, fmt.Errorf("ledger row %s %s: recorded %v, measured %v", lr.Workload, tech, s, got)
			}
		}
		for tech, p := range lr.Prefetch {
			if got := rec.Issued[tech]; got != p.Issued {
				return checked, fmt.Errorf("ledger row %s %s issued: recorded %d, measured %d", lr.Workload, tech, p.Issued, got)
			}
		}
	}
	return checked, nil
}
