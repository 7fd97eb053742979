// Command detlint runs the determinism lint (internal/detlint) over the
// timing-critical simulator packages, or over the directories given as
// arguments.
//
//	detlint [dir ...]
//
// Exit status: 0 when clean, 1 when findings were reported or a
// directory could not be read, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"ghostthread/internal/cli"
	"ghostthread/internal/detlint"
)

const tool = cli.Tool("detlint")

// defaultDirs are the packages whose behavior feeds simulated timing or
// experiment output: any nondeterminism here breaks replayable
// experiments. internal/harness and internal/lint produce the golden
// files and sweep reports the CI diffs, so their iteration order and
// clocks are held to the same standard (with explicit
// "//detlint:ignore" waivers where wall-clock use is intentional, e.g.
// throughput metrics).
var defaultDirs = []string{
	"internal/sim", "internal/cpu", "internal/cache", "internal/fault",
	"internal/harness", "internal/lint",
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: detlint [dir ...]\n")
		flag.PrintDefaults()
	}
	tool.Parse()

	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	findings, err := detlint.Dirs(dirs)
	tool.Check(err)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d findings\n", len(findings))
		os.Exit(1)
	}
}
