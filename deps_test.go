package ghostthread_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// forbiddenDep reports whether a standard package is one that no
// simulator process may link: the network stack, the crypto packages
// behind it, and gob. Each costs package initialisation in every
// process, and the paper's evaluation is a matrix of short processes.
func forbiddenDep(path string) bool {
	return path == "net" || strings.HasPrefix(path, "net/") ||
		path == "crypto" || strings.HasPrefix(path, "crypto/") ||
		path == "encoding/gob"
}

// TestNoNetCryptoGobInLibraries fails when any internal package, example
// or command other than gtmon (the live /metrics server) links net,
// net/..., crypto/... or encoding/gob. It names every edge from an
// allowed package into a forbidden one.
func TestNoNetCryptoGobInLibraries(t *testing.T) {
	out, err := exec.Command("go", "list", "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list ./cmd/...: %v", err)
	}
	roots := []string{"./internal/...", "./examples/..."}
	for _, cmd := range strings.Fields(string(out)) {
		if cmd != "ghostthread/cmd/gtmon" {
			roots = append(roots, cmd)
		}
	}
	if !slices.Contains(roots, "ghostthread/cmd/ghostbench") {
		t.Fatalf("go list ./cmd/... did not list ghostbench: %q", out)
	}

	args := append([]string{"list", "-deps", "-f", "{{.ImportPath}} {{join .Imports \" \"}}"}, roots...)
	out, err = exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || forbiddenDep(fields[0]) {
			continue
		}
		for _, imp := range fields[1:] {
			if forbiddenDep(imp) {
				t.Errorf("%s imports %s", fields[0], imp)
			}
		}
	}
}
