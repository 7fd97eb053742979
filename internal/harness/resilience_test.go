package harness

import (
	"errors"
	"strings"
	"testing"

	"ghostthread/internal/fault"
	"ghostthread/internal/gov"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// shortLadder keeps resilience tests fast: one clean level, one noisy.
func shortLadder() []ResilienceLevel {
	lv := ResilienceLevels(3)
	return []ResilienceLevel{lv[0], lv[2]} // fault-free, moderate
}

func TestRunMatrixWorkersPanicRecovery(t *testing.T) {
	testPanicHook = func(workload string) {
		if workload == "hj2" {
			panic("synthetic harness test panic")
		}
	}
	defer func() { testPanicHook = nil }()

	_, err := RunMatrixWorkers([]string{"camel", "hj2"}, "idle", sim.DefaultConfig(), 2, nil)
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Workload != "hj2" {
		t.Errorf("PanicError.Workload = %q, want hj2", perr.Workload)
	}
	if perr.Value != "synthetic harness test panic" {
		t.Errorf("PanicError.Value = %v, want the panic value", perr.Value)
	}
	// The recovered goroutine stack must ride along for debugging.
	if !strings.Contains(string(perr.Stack), "goroutine") {
		t.Error("PanicError.Stack does not look like a goroutine stack")
	}
	for _, want := range []string{"hj2", "panic", "goroutine"} {
		if !strings.Contains(perr.Error(), want) {
			t.Errorf("PanicError.Error() missing %q:\n%s", want, firstLine(perr.Error()))
		}
	}
}

func TestResilienceSweep(t *testing.T) {
	var streamed []ResilienceRow
	rows, err := Resilience([]string{"camel"}, sim.DefaultConfig(), ResilienceOptions{
		Levels:    shortLadder(),
		Workers:   1,
		BuildOpts: workloads.ProfileOptions(),
	}, func(r ResilienceRow) { streamed = append(streamed, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(shortLadder()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(shortLadder()))
	}
	if len(streamed) != len(rows) {
		t.Errorf("sink saw %d rows, want one per completed row (%d)", len(streamed), len(rows))
	}
	for _, r := range rows {
		if !r.CheckOK || r.Err != "" {
			t.Errorf("%s/%s: not ok: %+v", r.Workload, r.Level, r)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s/%s: speedup %f not computed", r.Workload, r.Level, r.Speedup)
		}
	}
	if !rows[0].Faults.Zero() {
		t.Errorf("fault-free level reported injected faults: %+v", rows[0].Faults)
	}
	if rows[1].Faults.Zero() {
		t.Errorf("moderate level injected nothing")
	}
	if rows[1].FaultSpec == "" || rows[1].FaultSpec == "off" {
		t.Errorf("moderate level fault spec not recorded: %q", rows[1].FaultSpec)
	}
}

func TestResilienceInjectedPanic(t *testing.T) {
	testPanicHook = func(workload string) {
		if workload == "hj2" {
			panic("injected resilience-test panic in " + workload)
		}
	}
	defer func() { testPanicHook = nil }()

	var streamed []ResilienceRow
	rows, err := Resilience([]string{"camel", "hj2"}, sim.DefaultConfig(), ResilienceOptions{
		Levels:    shortLadder(),
		Workers:   2,
		BuildOpts: workloads.ProfileOptions(),
	}, func(r ResilienceRow) { streamed = append(streamed, r) })
	if err != nil {
		t.Fatal(err)
	}
	// camel's rows survive intact, in order, ahead of hj2's panic row.
	want := len(shortLadder()) + 1
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d (camel ladder + hj2 panic row)", len(rows), want)
	}
	for _, r := range rows[:len(shortLadder())] {
		if r.Workload != "camel" || !r.CheckOK {
			t.Errorf("camel row corrupted by sibling panic: %+v", r)
		}
	}
	last := rows[len(rows)-1]
	if last.Workload != "hj2" || last.Level != "panic" {
		t.Fatalf("panic row = %s/%s, want hj2/panic", last.Workload, last.Level)
	}
	for _, frag := range []string{"injected resilience-test panic", "goroutine"} {
		if !strings.Contains(last.Err, frag) {
			t.Errorf("panic row error missing %q: %s", frag, firstLine(last.Err))
		}
	}
	if len(streamed) != len(rows) {
		t.Errorf("sink saw %d rows, want %d", len(streamed), len(rows))
	}
}

func TestResilienceCycleBudget(t *testing.T) {
	rows, err := Resilience([]string{"camel"}, sim.DefaultConfig(), ResilienceOptions{
		Levels:      shortLadder()[:1],
		Workers:     1,
		CycleBudget: 1_000, // far below any real run
		BuildOpts:   workloads.ProfileOptions(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if !r.TimedOut {
		t.Errorf("run under a 1000-cycle budget did not report TimedOut: %+v", r)
	}
	if !strings.Contains(r.Err, "cycle budget") {
		t.Errorf("timeout row error = %q, want the BudgetError text", r.Err)
	}
	if r.CheckOK {
		t.Error("timed-out row claims CheckOK")
	}
}

// TestResilienceBadConfig: a machine config the simulator rejects (here
// a governor without the telemetry it reads) lands as a typed error row,
// not a panic, and renders as such.
func TestResilienceBadConfig(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Governor = gov.Default()
	rows, err := Resilience([]string{"camel"}, cfg, ResilienceOptions{
		Levels:    shortLadder()[:1],
		Workers:   1,
		BuildOpts: workloads.ProfileOptions(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if !r.BadConfig || r.TimedOut || r.CheckOK {
		t.Errorf("bad-config row = %+v, want BadConfig only", r)
	}
	if !strings.Contains(r.Err, "requires telemetry") {
		t.Errorf("bad-config row error = %q, want the ConfigError text", r.Err)
	}
	if out := RenderResilience(rows); !strings.Contains(out, "BAD CONFIG") {
		t.Errorf("table does not flag the bad config:\n%s", out)
	}
}

func TestResilienceUnknownWorkload(t *testing.T) {
	rows, err := Resilience([]string{"no-such-workload"}, sim.DefaultConfig(), ResilienceOptions{
		Levels:  shortLadder()[:1],
		Workers: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Level != "setup" || rows[0].Err == "" {
		t.Errorf("unknown workload rows = %+v, want one setup error row", rows)
	}
}

func TestResilienceRejectsInvalidLevel(t *testing.T) {
	// An interval without a window length fails fault.Config.Validate.
	bad := []ResilienceLevel{{Name: "bad", Fault: fault.Config{Seed: 1, PreemptInterval: 100}}}
	if _, err := Resilience([]string{"camel"}, sim.DefaultConfig(), ResilienceOptions{Levels: bad}, nil); err == nil {
		t.Error("invalid fault level accepted")
	}
}

func TestRenderResilience(t *testing.T) {
	rows := []ResilienceRow{
		{Workload: "camel", Level: "light", BaselineCycles: 100, GhostCycles: 80, Speedup: 1.25, CheckOK: true},
		{Workload: "hj2", Level: "heavy", TimedOut: true, Err: "sim: exceeded cycle budget of 10 cycles"},
		{Workload: "hj2", Level: "panic", Err: "harness: hj2: panic: boom\ngoroutine 1 [running]:"},
	}
	out := RenderResilience(rows)
	for _, want := range []string{"camel", "light", "1.25", "TIMEOUT", "ERROR: harness: hj2: panic: boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The panic's multi-line stack must not leak into the table.
	if strings.Contains(out, "goroutine 1") {
		t.Errorf("table leaked a stack trace:\n%s", out)
	}
}
