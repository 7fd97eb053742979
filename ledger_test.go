package ghostthread_test

import (
	"encoding/json"
	"os"
	"testing"
)

// TestLedgerMatchesFig6Golden checks that every row of the perf ledger,
// BENCH_fig6.json, still records what testdata/fig6_golden.json records
// for the same workload: the same speedup columns with the same values,
// and the same prefetch count per column. perfbench cross-checks its
// measured rows against exactly these ledger fields, so a re-bless of
// the figure-6 golden that forgets the ledger fails here rather than in
// the benchmark. Regenerate the ledger's rows and geomean with
// `ghostbench -experiment fig6 -workloads <its rows> -json -quiet`,
// keeping its trajectory and throughput fields.
func TestLedgerMatchesFig6Golden(t *testing.T) {
	raw, err := os.ReadFile("BENCH_fig6.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger matrixGolden
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatalf("BENCH_fig6.json: %v", err)
	}
	if len(ledger.Rows) == 0 {
		t.Fatal("BENCH_fig6.json has no rows")
	}
	golden := map[string]goldenRow{}
	for _, r := range loadFig6Golden(t).Rows {
		golden[r.Workload] = r
	}
	for _, lr := range ledger.Rows {
		gr, ok := golden[lr.Workload]
		if !ok {
			t.Errorf("ledger row %s: no such row in the figure-6 golden", lr.Workload)
			continue
		}
		if len(lr.Speedup) != len(gr.Speedup) || len(lr.Prefetch) != len(gr.Prefetch) {
			t.Errorf("ledger row %s: %d speedup and %d prefetch columns, golden %d and %d",
				lr.Workload, len(lr.Speedup), len(lr.Prefetch), len(gr.Speedup), len(gr.Prefetch))
		}
		for tech, s := range lr.Speedup {
			if g, ok := gr.Speedup[tech]; !ok || g != s {
				t.Errorf("ledger row %s %s speedup: ledger %v, golden %v", lr.Workload, tech, s, g)
			}
		}
		for tech, p := range lr.Prefetch {
			if g, ok := gr.Prefetch[tech]; !ok || g.Issued != p.Issued {
				t.Errorf("ledger row %s %s issued: ledger %d, golden %d", lr.Workload, tech, p.Issued, g.Issued)
			}
		}
	}
}
