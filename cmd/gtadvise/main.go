// Command gtadvise runs the static advice passes — address-pattern
// classification, the may-alias oracle, and the ghost-benefit cost
// model — over registered workloads and prints, per annotated target
// load, its stride class and predicted benefit, and per workload a
// ghost / smt-openmp / none recommendation. Purely static: nothing is
// simulated (the `ghostbench -experiment advise` harness joins this
// output against measured speedups).
//
//	gtadvise -all                    advise every registered workload
//	gtadvise -workload camel,hj8     advise selected workloads
//	gtadvise -all -json              machine-readable advice (golden-file input)
//
// Exit codes:
//
//	0  advice produced
//	1  internal failure (analysis error)
//	2  usage error (no workload selected, unknown workload or flag)
package main

import (
	"flag"
	"fmt"

	"ghostthread/internal/analysis"
	"ghostthread/internal/cli"
	"ghostthread/internal/lint"
	"ghostthread/internal/workloads"
)

const tool = cli.Tool("gtadvise")

func main() {
	var (
		all      = flag.Bool("all", false, "advise every registered workload")
		workload = flag.String("workload", "", "advise a comma-separated list of workloads")
		scale    = cli.Scale(flag.CommandLine, workloads.ScaleProfile, "workload input scale: eval | profile")
		asJSON   = flag.Bool("json", false, "emit a JSON advice array on stdout instead of the table")
	)
	tool.Parse()
	names, err := cli.Workloads(*all, *workload)
	tool.Check(err)

	opts := lint.Options{Scale: *scale}
	cp := analysis.DefaultCostParams()
	var advice []*lint.WorkloadAdvice
	for _, name := range names {
		adv, err := lint.Advise(name, opts, cp)
		if err != nil {
			tool.Check(fmt.Errorf("advise: %s: %w", name, err))
		}
		advice = append(advice, adv)
	}

	if *asJSON {
		tool.Check(cli.JSON(advice))
		return
	}

	fmt.Printf("%-14s %-6s %-16s %-14s %6s %6s %6s %8s  %s\n",
		"workload", "pc", "loop", "class", "body", "slice", "lead", "benefit", "recommend")
	for _, adv := range advice {
		if len(adv.Targets) == 0 {
			fmt.Printf("%-14s %-6s %-16s %-14s %6s %6s %6s %8s  %s\n",
				adv.Workload, "-", "-", "-", "-", "-", "-", "-", adv.Recommend)
			continue
		}
		for i, t := range adv.Targets {
			name := adv.Workload
			rec := ""
			if i == 0 {
				rec = adv.Recommend
			} else {
				name = ""
			}
			fmt.Printf("%-14s %-6d %-16s %-14s %6d %6d %6.2f %8.3f  %s\n",
				name, t.PC, t.Loop, t.Class, t.BodyLen, t.SliceLen, t.Lead, t.Benefit, rec)
		}
	}
}
