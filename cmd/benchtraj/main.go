// Command benchtraj maintains the perf-history ledger in
// BENCH_fig6.json. It takes a freshly generated figure-6 matrix JSON
// (from `ghostbench -experiment fig6 -json`), carries the accumulated
// `trajectory` array over from the previous ledger, appends an entry
// {git_sha, sim_cycles_per_sec, wall_seconds, simulated_cycles} for this
// run, writes the merged file, and enforces the regression gate: exit 1
// when throughput fell more than -max-drop below the latest earlier entry
// from the same host (Go version, GOMAXPROCS, workers, CPU model). With
// no such entry the gate passes and says so.
// `make bench-smoke` runs it after every matrix regeneration, so the
// ledger accumulates one point per CI run instead of being overwritten.
//
//	benchtraj -in fresh.json -out BENCH_fig6.json            append + check
//	benchtraj -in fresh.json -out BENCH_fig6.json -no-check  append only
//
// Exit codes:
//
//	0  ledger updated (and the gate passed)
//	1  throughput regression beyond -max-drop, or an internal failure
//	2  usage error (no -in, unknown flag)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"ghostthread/internal/cli"
	"ghostthread/internal/harness"
)

const tool = cli.Tool("benchtraj")

func main() {
	var (
		in      = flag.String("in", "", "freshly generated matrix JSON (required)")
		out     = flag.String("out", "BENCH_fig6.json", "ledger file to update in place")
		sha     = flag.String("sha", "", "commit identifier for the new entry (default: git rev-parse --short HEAD)")
		maxDrop = flag.Float64("max-drop", 0.30, "fail when sim_cycles_per_sec drops more than this fraction below the latest same-host entry")
		noCheck = flag.Bool("no-check", false, "append the entry without enforcing the regression gate")
	)
	tool.Parse()
	if *in == "" {
		tool.Check(cli.Usagef("-in is required"))
	}

	fresh, err := os.ReadFile(*in)
	tool.Check(err)
	prev, err := os.ReadFile(*out)
	if err != nil {
		if !os.IsNotExist(err) {
			tool.Check(err)
		}
		prev = nil
	}
	id := *sha
	if id == "" {
		id = headSHA()
	}

	merged, history, err := harness.AppendTrajectory(fresh, prev, id)
	tool.Check(err)
	tool.Check(os.WriteFile(*out, merged, 0o644))
	last := history[len(history)-1]
	fmt.Printf("benchtraj: %s: entry %d: %.3gM sim-cycles/s (%.2fs wall)\n",
		*out, len(history), last.SimCyclesPerSec/1e6, last.WallSeconds)

	if !*noCheck {
		if _, ok := harness.TrajectoryBaseline(history); !ok {
			fmt.Println("benchtraj: no earlier entry from this host; throughput gate not applied")
		}
		tool.Check(harness.CheckTrajectory(history, *maxDrop))
	}
}

// headSHA asks git for the current commit; a non-repo checkout (release
// tarball) degrades to a placeholder rather than failing the smoke.
func headSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "(unknown)"
	}
	return strings.TrimSpace(string(out))
}
