// Command gtverify runs translation validation over the hand-written
// ghost helpers of registered workloads: each helper's prefetch stream
// is proven address-equivalent to the main thread's demand stream on
// the pruned-SSA symbolic evaluation of both programs. Verdicts are
// PROVED, PROVED-MODULO-SYNC (equivalent once FlagSyncSkip self-updates
// are erased), or UNPROVED with a minimal counterexample path. With
// -shadow the workload is additionally executed under the dynamic
// shadow oracle, which cross-checks the same property on the concrete
// address stream in both stepping modes.
//
//	gtverify -all                     verify every registered workload
//	gtverify -workload camel,hj8      verify selected workloads
//	gtverify -all -json               machine-readable verdicts
//	gtverify -all -shadow             also run the dynamic shadow oracle
//
// Exit codes:
//
//	0  every verdict PROVED or PROVED-MODULO-SYNC (and, with -shadow,
//	   zero divergent prefetches)
//	1  at least one UNPROVED verdict or shadow divergence, or an
//	   internal failure
//	2  usage error (no workload selected, unknown workload or flag)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ghostthread/internal/analysis"
	"ghostthread/internal/cli"
	"ghostthread/internal/lint"
)

const tool = cli.Tool("gtverify")

func main() {
	var (
		all      = flag.Bool("all", false, "verify every registered workload")
		workload = flag.String("workload", "", "verify a comma-separated list of workloads")
		asJSON   = flag.Bool("json", false, "emit a JSON verdict array on stdout instead of the table")
		shadow   = flag.Bool("shadow", false, "also run each ghost under the dynamic shadow oracle (both stepping modes)")
	)
	tool.Parse()
	names, err := cli.Workloads(*all, *workload)
	tool.Check(err)

	opts := lint.VerifyOptions{Shadow: *shadow}
	var verdicts []*lint.WorkloadVerdict
	for _, name := range names {
		wv, err := lint.Verify(name, opts)
		if err != nil {
			tool.Check(fmt.Errorf("verify: %s: %w", name, err))
		}
		verdicts = append(verdicts, wv)
	}

	bad := false
	for _, wv := range verdicts {
		if wv.Status == analysis.Unproved {
			bad = true
		}
		if wv.Shadow != nil && !wv.Shadow.Agree {
			bad = true
		}
	}

	if *asJSON {
		tool.Check(cli.JSON(verdicts))
	} else {
		printTable(verdicts, *shadow)
	}
	if bad {
		os.Exit(1)
	}
}

func printTable(verdicts []*lint.WorkloadVerdict, shadow bool) {
	header := fmt.Sprintf("%-14s %-22s %-8s %-19s %7s %6s %s",
		"workload", "helper", "spawn", "status", "targets", "lead", "notes")
	if shadow {
		header += fmt.Sprintf("  %10s %9s %9s", "confirmed", "divergent", "orphaned")
	}
	fmt.Println(header)
	for _, wv := range verdicts {
		if wv.NoGhost {
			fmt.Printf("%-14s %-22s %-8s %-19s %7s %6s %s\n",
				wv.Workload, "-", "-", "no-ghost", "-", "-", "")
			continue
		}
		first := true
		for _, hv := range wv.Helpers {
			for _, v := range hv.Verdicts {
				name := wv.Workload
				if !first {
					name = ""
				}
				first = false
				lead, notes := describeVerdict(v)
				line := fmt.Sprintf("%-14s %-22s %-8d %-19s %7d %6s %s",
					name, hv.Name, v.SpawnPC, v.Status, len(v.Targets), lead, notes)
				if shadow && wv.Shadow != nil && name != "" {
					line += fmt.Sprintf("  %10d %9d %9d",
						wv.Shadow.Ref.Confirmed, wv.Shadow.Ref.Divergent, wv.Shadow.Ref.Orphaned)
					if !wv.Shadow.Agree {
						line += "  DIVERGENT"
					}
				}
				fmt.Println(line)
			}
		}
	}
}

// describeVerdict condenses a verdict's targets into the table's lead
// and notes columns: the common lead distance (or "mixed") and the
// first UNPROVED reason, if any.
func describeVerdict(v *analysis.Verdict) (lead, notes string) {
	if v.Err != "" {
		return "-", v.Err
	}
	lead = "-"
	uniform := true
	var tags []string
	for i, tv := range v.Targets {
		if tv.Status == analysis.Unproved && notes == "" {
			notes = tv.Reason
		}
		l := fmt.Sprintf("%d", tv.Lead)
		if i == 0 {
			lead = l
		} else if lead != l {
			uniform = false
		}
		if len(tv.Unfolded) > 0 && !contains(tags, "unfolded") {
			tags = append(tags, "unfolded")
		}
		if tv.Implicit && !contains(tags, "implicit") {
			tags = append(tags, "implicit")
		}
		if tv.ViaLoad && !contains(tags, "via-load") {
			tags = append(tags, "via-load")
		}
	}
	if !uniform {
		lead = "mixed"
	}
	if notes == "" && len(tags) > 0 {
		notes = strings.Join(tags, ",")
	}
	return lead, notes
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
