package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"ghostthread/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/governor_busy_golden.ndjson from the current governor experiment")

const govBusyGolden = "testdata/governor_busy_golden.ndjson"

// TestGovernorBusyGolden pins the governor experiment's rows on the busy
// machine with the shadow oracle on — bfs.kron, hj8 and camel, the rows
// perfbench's governed-busy workload runs — as NDJSON in
// ghostbench -experiment governor -json's format. The governor smoke
// covers only the idle machine; this golden covers the memory
// controller's pressure path under the governor. Re-bless after a
// reviewed change with
//
//	go test ./internal/harness -run TestGovernorBusyGolden -update
func TestGovernorBusyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("eval-scale simulation")
	}
	cfg := sim.BusyConfig()
	cfg.Shadow.Enabled = true
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range GovernorExperiment([]string{"bfs.kron", "hj8", "camel"}, cfg, govWindow) {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	got := buf.Bytes()

	if *update {
		if err := os.WriteFile(govBusyGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(govBusyGolden)
	if err != nil {
		t.Fatalf("%v (bless with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("busy governor rows drifted from %s:\nwant:\n%sgot:\n%s", govBusyGolden, want, got)
	}
}
