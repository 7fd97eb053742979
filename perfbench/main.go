// Command perfbench is the layered benchmark's measuring process. One
// invocation measures one workload in one mode and prints one JSON object:
//
//	perfbench -workload fig6-membound -mode pass   # untraced measured pass
//	perfbench -workload fig6-membound -mode walk   # traced walk + probes
//	perfbench -workload fig6-membound -mode setup  # set up, then stop
//
// run.py starts a fresh process for every pass (the harness's profile memo
// is process-wide), aggregates them and prints the benchmark's result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ghostthread/internal/harness"
)

func main() {
	var (
		name   = flag.String("workload", "", "benchmark workload name")
		mode   = flag.String("mode", "pass", "pass | walk | setup")
		ledger = flag.String("ledger", "", "pass: perf ledger (BENCH_fig6.json) to cross-check rows against")
		expect = flag.String("expect", "", "walk: a pass's JSON output whose rows the walk must reproduce")
		spans  = flag.String("spans", "", "walk: write the spans here as JSON")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	// The on-disk profile cache stays off: every pass profiles afresh.
	if err := harness.SetProfileCacheDir(""); err != nil {
		fatal(err)
	}

	var tr *tracer
	if *mode == "walk" {
		tr = newTracer()
	}
	multi, err := setup(w, tr)
	if err != nil {
		fatal(err)
	}

	var out any
	switch *mode {
	case "setup":
		out = map[string]float64{"setup_cpu_s": cpuTime().Seconds()}
	case "pass":
		out = measurePass(w, multi, *ledger)
	case "walk":
		var want *passResult
		if *expect != "" {
			b, err := os.ReadFile(*expect)
			if err != nil {
				fatal(err)
			}
			want = &passResult{}
			if err := json.Unmarshal(b, want); err != nil {
				fatal(fmt.Errorf("reading %s: %w", *expect, err))
			}
		}
		res := walkAndProbe(w, multi, tr, want)
		if *spans != "" {
			if err := tr.write(*spans); err != nil {
				fatal(err)
			}
		}
		out = res
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
