package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"testing"
)

// verifyAloneArg is the positional argument that makes the test binary,
// re-run as a child process, print hj8's verdict JSON and exit.
const verifyAloneArg = "verify-hj8-alone"

func verifyJSON(t *testing.T, name string) []byte {
	t.Helper()
	wv, err := Verify(name, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(wv)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestVerdictTextIndependentOfHistory requires a verdict to render the
// same text whatever the process verified before: hj8 verified alone in
// a fresh process (as gtverify -workload hj8 does) and hj8 verified
// after camel-par in this one (as in a gtverify -all sweep) must give
// equal JSON. hj8's hash rounds nest deeper than the rendering depth, so
// its expressions carry elided sub-expressions.
func TestVerdictTextIndependentOfHistory(t *testing.T) {
	if flag.Arg(0) == verifyAloneArg {
		os.Stdout.Write(append(verifyJSON(t, "hj8"), '\n'))
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestVerdictTextIndependentOfHistory$", verifyAloneArg).Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	alone, _, _ := bytes.Cut(out, []byte("\n"))

	verifyJSON(t, "camel-par")
	after := verifyJSON(t, "hj8")
	if !bytes.Equal(alone, after) {
		t.Errorf("hj8 verdict JSON depends on process history:\n alone: %s\n after camel-par: %s", alone, after)
	}
	if !bytes.Contains(after, []byte("#N")) {
		t.Errorf("hj8 verdict renders no elided sub-expression; the test no longer exercises elision:\n%s", after)
	}
}
