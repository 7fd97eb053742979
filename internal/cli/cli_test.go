package cli

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"testing"

	"ghostthread/internal/workloads"
)

// flags builds a flag set with the shared flags the commands define:
// -scale, -window (>= 0), -rows and -mem (>= 1).
func flags() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Scale(fs, workloads.ScaleEval, "")
	Int(fs, "window", 0, 0, "")
	Int(fs, "rows", 60, 1, "")
	Int(fs, "mem", 1<<20, 1, "")
	return fs
}

func TestBadValuesAreUsageErrors(t *testing.T) {
	parse := func(args ...string) func() error {
		return func() error { return Parse(flags(), args) }
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"unknown -scale", parse("-scale", "bogus")},
		{"-window < 0", parse("-window", "-1")},
		{"-rows 0", parse("-rows", "0")},
		{"-mem 0", parse("-mem", "0")},
		{"-mem -5", parse("-mem", "-5")},
		{"non-integer count", parse("-rows", "many")},
		{"unknown flag", parse("-no-such-flag")},
		{"unknown -variant", func() error { _, err := Lookup("camel", "bogus"); return err }},
		{"unknown -workload", func() error { _, err := Lookup("no-such-workload", "ghost"); return err }},
		{"two gtrun modes", func() error {
			_, err := OneMode(map[string]bool{"profile": true, "dump": true, "asm": false})
			return err
		}},
		{"-all with -workload", func() error { _, err := Workloads(true, "camel"); return err }},
		{"neither -all nor -workload", func() error { _, err := Workloads(false, " , "); return err }},
		{"unknown name in a list", func() error { _, err := Workloads(false, "camel,nope"); return err }},
	}
	for _, c := range cases {
		if got := Code(c.run()); got != 2 {
			t.Errorf("%s: exit code %d, want 2", c.name, got)
		}
	}
}

func TestGoodValuesParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	scale := Scale(fs, workloads.ScaleEval, "")
	window := Int(fs, "window", 0, 0, "")
	if err := Parse(fs, []string{"-scale", "profile", "-window", "20000"}); err != nil {
		t.Fatal(err)
	}
	if *scale != workloads.ScaleProfile || *window != 20000 {
		t.Errorf("got scale %v window %d, want profile 20000", *scale, *window)
	}
	mode, err := OneMode(map[string]bool{"profile": false, "dump": true})
	if mode != "dump" || err != nil {
		t.Errorf("OneMode = %q, %v; want dump, nil", mode, err)
	}
}

func TestCode(t *testing.T) {
	if Code(nil) != 0 || Code(errors.New("run failed")) != 1 {
		t.Error("nil must exit 0 and a run failure 1")
	}
	if got := Code(fmt.Errorf("wrapped: %w", Usagef("bad"))); got != 2 {
		t.Errorf("wrapped usage error: exit code %d, want 2", got)
	}
}

func TestWorkloadsAllVersusList(t *testing.T) {
	all, err := Workloads(true, "")
	if err != nil || !slices.Equal(all, workloads.Names()) {
		t.Errorf("-all = %v, %v; want the registry in name order", all, err)
	}
	list, err := Workloads(false, " hj8 , camel,,bfs.kron ")
	if want := []string{"hj8", "camel", "bfs.kron"}; err != nil || !slices.Equal(list, want) {
		t.Errorf("comma list = %v, %v; want %v in the order given", list, err, want)
	}
}

func TestParseScaleRoundTrip(t *testing.T) {
	for _, s := range []workloads.Scale{workloads.ScaleProfile, workloads.ScaleEval} {
		got, err := workloads.ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := workloads.ParseScale("Eval"); err == nil {
		t.Error("ParseScale accepted a misspelled scale")
	}
}
