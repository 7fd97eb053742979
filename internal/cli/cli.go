// Package cli is the front door every command under cmd/ shares: the
// exit-code policy, the -scale flag, bounded count flags such as
// -window, workload and variant lookup by name, workload lists, and the
// NDJSON stream writer.
//
// Exit codes: 0 success; 1 a failed run; 2 a usage error — a bad flag,
// flag value or flag combination, reported before anything is built.
// Every message is prefixed with the tool's name.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"ghostthread/internal/workloads"
)

// UsageError is a bad flag, flag value or flag combination (exit 2).
type UsageError struct{ msg string }

func (e *UsageError) Error() string { return e.msg }

// Usagef returns a UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{fmt.Sprintf(format, args...)}
}

// Code is the exit code for err: 0 for nil, 2 for a UsageError, 1 for
// anything else.
func Code(err error) int {
	var u *UsageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &u):
		return 2
	}
	return 1
}

// Tool is a command's name, the prefix of every message it prints.
type Tool string

// Check returns when err is nil; otherwise it prints err and exits with
// Code(err).
func (t Tool) Check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", t, err)
	if Code(err) == 2 {
		fmt.Fprintf(os.Stderr, "run '%s -h' for usage\n", t)
	}
	os.Exit(Code(err))
}

// Parse parses the command line into the default flag set. -h prints
// the flag defaults and exits 0; any parse failure exits 2.
func (t Tool) Parse() {
	flag.CommandLine.Init(string(t), flag.ContinueOnError)
	err := Parse(flag.CommandLine, os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		flag.Usage()
		os.Exit(0)
	}
	t.Check(err)
}

// Parse parses args into fs and returns any failure, except -h's
// flag.ErrHelp, as a UsageError. The flag package's own error output is
// suppressed so Tool.Check reports the error once.
func Parse(fs *flag.FlagSet, args []string) error {
	out := fs.Output()
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	fs.SetOutput(out)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &UsageError{err.Error()}
}

type scaleValue struct{ s *workloads.Scale }

func (v scaleValue) String() string {
	if v.s == nil {
		return ""
	}
	return v.s.String()
}

func (v scaleValue) Set(s string) error {
	sc, err := workloads.ParseScale(s)
	if err == nil {
		*v.s = sc
	}
	return err
}

// Scale defines the -scale flag (eval | profile) on fs.
func Scale(fs *flag.FlagSet, def workloads.Scale, usage string) *workloads.Scale {
	s := def
	fs.Var(scaleValue{&s}, "scale", usage)
	return &s
}

type atLeast struct {
	v   *int64
	min int64
}

func (a atLeast) String() string {
	if a.v == nil {
		return "0"
	}
	return strconv.FormatInt(*a.v, 10)
}

func (a atLeast) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return errors.New("not an integer")
	}
	if v < a.min {
		return fmt.Errorf("must be >= %d", a.min)
	}
	*a.v = v
	return nil
}

// Int defines an int64 flag on fs that rejects values below min.
func Int(fs *flag.FlagSet, name string, def, min int64, usage string) *int64 {
	v := def
	fs.Var(atLeast{&v, min}, name, usage)
	return &v
}

// Lookup resolves -workload and checks -variant before anything is
// built; an unknown name of either is a usage error.
func Lookup(workload, variant string) (workloads.Builder, error) {
	if !slices.Contains(workloads.VariantNames, variant) {
		return nil, Usagef("unknown -variant %q (want %s)", variant, strings.Join(workloads.VariantNames, " | "))
	}
	build, err := workloads.Lookup(workload)
	if err != nil {
		return nil, &UsageError{err.Error()}
	}
	return build, nil
}

// Variant returns inst's named variant; a variant the workload does not
// have is a usage error.
func Variant(inst *workloads.Instance, name string) (*workloads.Variant, error) {
	if v := inst.VariantByName(name); v != nil {
		return v, nil
	}
	return nil, Usagef("workload %s has no %q variant", inst.Name, name)
}

// Names splits a comma-separated workload list, trimming spaces and
// dropping empty items; an unregistered name is a usage error.
func Names(list string) ([]string, error) {
	var names []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, err := workloads.Lookup(n); err != nil {
			return nil, &UsageError{err.Error()}
		}
		names = append(names, n)
	}
	return names, nil
}

// Workloads turns -all or a -workload comma list into workload names:
// the whole registry in name order for -all, the list as given
// otherwise. Neither or both is a usage error.
func Workloads(all bool, list string) ([]string, error) {
	names, err := Names(list)
	switch {
	case err != nil:
		return nil, err
	case all && len(names) > 0:
		return nil, Usagef("-all and -workload are mutually exclusive")
	case all:
		return workloads.Names(), nil
	case len(names) == 0:
		return nil, Usagef("no workloads selected (give -all or -workload NAME[,NAME...])")
	}
	return names, nil
}

// OneMode returns the name of the one mode flag that is set, "" when
// none is; more than one is a usage error.
func OneMode(modes map[string]bool) (string, error) {
	var on []string
	for name, set := range modes {
		if set {
			on = append(on, name)
		}
	}
	slices.Sort(on)
	switch len(on) {
	case 0:
		return "", nil
	case 1:
		return on[0], nil
	}
	return "", Usagef("-%s are mutually exclusive", strings.Join(on, ", -"))
}

// NDJSON opens path ("-" = stdout) as a newline-delimited JSON stream.
// Writes are unbuffered, one line per emitted value, so every value is
// on disk before the next is produced: a killed run loses at most the
// one in progress, and gtmon can tail the file live. Failing to open or
// write the stream exits 1; done closes it.
func (t Tool) NDJSON(path string) (emit func(v any), done func()) {
	var w io.Writer = os.Stdout
	done = func() {}
	if path != "-" {
		f, err := os.Create(path)
		t.Check(err)
		w, done = f, func() { t.Check(f.Close()) }
	}
	enc := json.NewEncoder(w)
	return func(v any) { t.Check(enc.Encode(v)) }, done
}

// JSON writes v to stdout as indented JSON, the -json document format.
func JSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
