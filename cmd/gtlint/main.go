// Command gtlint runs the static analyses over registered workloads:
// ISA validation, loop-annotation cross-checks, the ghost-safety proof,
// the synchronization-segment lint, the Parallel-variant race lint, and
// an end-to-end compiler extraction with an optional minimality report.
//
//	gtlint -all              lint every registered workload
//	gtlint -workload camel   lint one workload (or a comma-separated list)
//	gtlint -all -v           include info findings (slice minimality)
//	gtlint -all -json        machine-readable output (one report)
//
// Exit codes:
//
//	0  clean — no error-severity findings
//	1  at least one error-severity finding (or an internal failure)
//	2  usage error (no workload selected, unknown workload or flag)
package main

import (
	"flag"
	"fmt"
	"os"

	"ghostthread/internal/analysis"
	"ghostthread/internal/cli"
	"ghostthread/internal/lint"
)

// jsonReport is the -json document: findings across all linted
// workloads in Report.Sort order, plus summary counts.
type jsonReport struct {
	Workloads []string           `json:"workloads"`
	Findings  []analysis.Finding `json:"findings"`
	Errors    int                `json:"errors"`
	Warnings  int                `json:"warnings"`
	Infos     int                `json:"infos"`
}

const tool = cli.Tool("gtlint")

func main() {
	var (
		all      = flag.Bool("all", false, "lint every registered workload")
		workload = flag.String("workload", "", "lint a comma-separated list of workloads (see gtrun -list)")
		verbose  = flag.Bool("v", false, "also print info-severity findings (minimality report)")
		asJSON   = flag.Bool("json", false, "emit one JSON report on stdout instead of text")
	)
	tool.Parse()
	names, err := cli.Workloads(*all, *workload)
	tool.Check(err)

	opts := lint.Options{Minimality: *verbose}
	merged := &analysis.Report{}
	for _, name := range names {
		rep, err := lint.Workload(name, opts)
		if err != nil {
			tool.Check(fmt.Errorf("lint: %s: %w", name, err))
		}
		merged.Add(rep.Findings...)
	}
	merged.Dedupe()

	doc := jsonReport{Workloads: names, Findings: []analysis.Finding{}}
	for _, f := range merged.Findings {
		switch f.Severity {
		case analysis.SevError:
			doc.Errors++
		case analysis.SevWarn:
			doc.Warnings++
		case analysis.SevInfo:
			doc.Infos++
			if !*verbose {
				continue
			}
		}
		doc.Findings = append(doc.Findings, f)
	}

	if *asJSON {
		tool.Check(cli.JSON(doc))
	} else {
		for _, f := range doc.Findings {
			fmt.Println(f)
		}
		fmt.Printf("gtlint: %d workloads, %d errors, %d warnings\n", len(names), doc.Errors, doc.Warnings)
	}
	if doc.Errors > 0 {
		os.Exit(1)
	}
}
