GO ?= go
TRACE_OUT ?= TRACE_camel_ghost.json

.PHONY: build vet test race lint detlint verify-smoke verify-golden results-smoke results-golden bench-smoke profile-fig6 trace-smoke fault-smoke metrics-smoke metrics-golden governor-smoke governor-golden fig10-smoke fig10-golden cli-smoke cli-golden ci

build:
	$(GO) build ./...

# go vet plus a formatting gate: any file gofmt would rewrite fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt would reformat:" >&2; echo "$$out" >&2; exit 1; fi

test:
	$(GO) test ./...

# The race detector is ~10x; the differential sweeps (internal/sim runs
# ~15m under -race on 2 vCPUs, the whole suite ~22m) need more than the
# default 10m per-package timeout. Simulations are single-threaded; the
# race target guards the harness, whose RunMatrixWorkers runs rows
# concurrently.
race:
	$(GO) test -race -timeout 40m ./...

# Static analysis sweep: every registered workload x variant through the
# verifier battery (exit 1 on any error-severity finding).
lint:
	$(GO) run ./cmd/gtlint -all

# Determinism lint: the timing-critical simulator packages must not read
# the wall clock, draw from the global rand source, or iterate maps in
# timing-relevant code (exit 1 on findings).
detlint:
	$(GO) run ./cmd/detlint

# Verification smoke: translation validation over every registered
# workload's manual ghost. gtverify itself exits 1 on any UNPROVED
# verdict; the diff catches silent drift in verdict details (lead
# distances, skip PCs, unfold labels) and the grep is a belt-and-braces
# re-check of the zero-UNPROVED invariant. Re-bless after a reviewed
# change with `make verify-golden`.
verify-smoke:
	$(GO) run ./cmd/gtverify -all -json > VERIFY_all.json
	diff -u testdata/verify_golden.json VERIFY_all.json
	@! grep -q '"UNPROVED"' VERIFY_all.json

# Re-bless the translation-validation golden after a reviewed behavior
# change. Inspect the diff before committing.
verify-golden:
	$(GO) run ./cmd/gtverify -all -json > testdata/verify_golden.json

# Results smoke: the full figure-6 table (34 rows: selection, targets,
# baseline cycles, every column's speedup and energy saving, and the
# prefetch reports) diffed against the checked-in golden. The simulator
# is deterministic, so any drift means a simulated number moved — fix it,
# or review the diff and re-bless with `make results-golden`. The grep
# drops the harness-accounting and host fields (worker count, wall time,
# simulated-cycle totals), which vary by host or by how the harness
# shares runs; the golden is therefore a line diff, not valid JSON.
RESULTS_FILTER = grep -v -E '"(workers|wall_seconds|simulated_cycles|sim_cycles_per_sec|sim_cycles)":'
results-smoke:
	$(GO) run ./cmd/ghostbench -experiment fig6 -json -quiet | $(RESULTS_FILTER) > RESULTS_fig6.json
	diff -u testdata/fig6_golden.json RESULTS_fig6.json

# Re-bless the figure-6 results golden after a reviewed change that moves
# a simulated number. Explain the diff in CHANGES.md.
results-golden:
	$(GO) run ./cmd/ghostbench -experiment fig6 -json -quiet | $(RESULTS_FILTER) > testdata/fig6_golden.json

# Perf smoke: figure 3 plus a 4-workload figure-6 slice with throughput
# metrics, so simulator-speed regressions surface in tier-1. benchtraj
# appends one {git_sha, sim_cycles_per_sec} entry to BENCH_fig6.json's
# trajectory array (the file accumulates a perf history instead of being
# overwritten) and exits 1 when throughput drops >30% below the previous
# entry.
bench-smoke:
	$(GO) run ./cmd/ghostbench -experiment fig3
	$(GO) run ./cmd/ghostbench -experiment fig6 -workloads camel,kangaroo,hj2,bfs.kron -json -quiet > BENCH_fig6.tmp.json
	$(GO) run ./cmd/benchtraj -in BENCH_fig6.tmp.json -out BENCH_fig6.json -max-drop 0.30
	@rm -f BENCH_fig6.tmp.json
	@grep -E '"(git_sha|sim_cycles_per_sec)"' BENCH_fig6.json

# Profiling entry point for perf work: the bench-smoke figure-6 slice
# under the pprof CPU and heap profilers. Inspect with
#   go tool pprof fig6.cpu.pprof
profile-fig6:
	$(GO) run ./cmd/ghostbench -experiment fig6 -workloads camel,kangaroo,hj2,bfs.kron \
		-cpuprofile fig6.cpu.pprof -memprofile fig6.mem.pprof -json -quiet > /dev/null
	@ls -l fig6.cpu.pprof fig6.mem.pprof

# Observability smoke: trace camel/ghost through the event recorder,
# export Chrome trace-event JSON, and re-validate it against the schema
# (required keys, monotonic ts per track). gttrace itself also asserts
# the serialize-throttle spans sum to the SerializeStall counter.
trace-smoke:
	$(GO) run ./cmd/gttrace -workload camel -variant ghost -chrome $(TRACE_OUT)
	$(GO) run ./cmd/gttrace -validate $(TRACE_OUT)

# Resilience smoke: the fault-injection differential suite (architectural
# results bit-identical under every fault schedule, both stepping modes),
# then a two-workload resilience sweep at profile scale with an injected
# worker panic — the sweep must emit camel's NDJSON rows intact plus one
# recovered panic row for hj2.
fault-smoke:
	$(GO) test ./internal/sim -run 'TestFault|TestBudget' -count=1
	$(GO) run ./cmd/ghostbench -experiment resilience -scale profile \
		-workloads camel,hj2 -panic-at hj2 -json -quiet > FAULT_resilience.json
	@grep -q '"level":"panic"' FAULT_resilience.json
	@grep -q '"workload":"camel".*"check_ok":true' FAULT_resilience.json

# Telemetry smoke: the windowed time-series NDJSON for camel/ghost at
# profile scale diffed against the checked-in golden (the stream is
# deterministic, so any drift means window accounting changed behavior —
# fix it, or review and re-bless with `make metrics-golden`), then
# bfs.kron's stream must detect at least one phase boundary. Chrome
# counter-track export is validated by TestChromeTraceWindowsCounters in
# tier-1.
metrics-smoke:
	$(GO) run ./cmd/gtrun -workload camel -variant ghost -scale profile \
		-window 20000 -window-out METRICS_camel.ndjson > /dev/null
	diff -u testdata/metrics_golden.ndjson METRICS_camel.ndjson
	$(GO) run ./cmd/gtrun -workload bfs.kron -variant ghost -scale profile \
		-window 20000 -window-out METRICS_bfs.ndjson > /dev/null
	@grep -q '"phase_boundary":true' METRICS_bfs.ndjson

# Re-bless the telemetry golden after a reviewed change to window
# accounting. Inspect the diff before committing.
metrics-golden:
	$(GO) run ./cmd/gtrun -workload camel -variant ghost -scale profile \
		-window 20000 -window-out testdata/metrics_golden.ndjson > /dev/null

# Governor smoke: the governor experiment's rows on its 5 default
# workloads (cycles, speedups and every decision) are diffed against a
# checked-in golden, and the governed bfs.kron compiler ghost must emit a
# mid-run kill decision (the stale-slice regression EXPERIMENTS.md
# dissects). camel's healthy manual ghost must draw zero decisions, and
# the governed camel window stream is diffed against a second golden — a
# silent governor is a pure observer, so any drift means the governor
# (or window accounting under it) changed behavior. Review the diff,
# then re-bless both goldens with `make governor-golden`.
governor-smoke:
	$(GO) run ./cmd/ghostbench -experiment governor -json -quiet > GOV_all.ndjson
	diff -u testdata/governor_golden.ndjson GOV_all.ndjson
	@grep '"workload":"bfs.kron","kind":"compiler"' GOV_all.ndjson | grep -q '"action":"kill"' || \
		{ echo "governor-smoke: no kill decision on the governed bfs.kron compiler ghost" >&2; exit 1; }
	$(GO) run ./cmd/gtrun -workload camel -variant ghost -scale profile -govern \
		-window-out GOVWIN_camel.ndjson > GOVRUN_camel.txt
	@grep -q 'governor    0 decisions' GOVRUN_camel.txt || \
		{ echo "governor-smoke: governor decided on camel's healthy ghost:" >&2; cat GOVRUN_camel.txt >&2; exit 1; }
	diff -u testdata/governed_windows_golden.ndjson GOVWIN_camel.ndjson

# Re-bless the governor goldens after a reviewed change. Inspect the
# diff before committing.
governor-golden:
	$(GO) run ./cmd/ghostbench -experiment governor -json -quiet > testdata/governor_golden.ndjson
	$(GO) run ./cmd/gtrun -workload camel -variant ghost -scale profile -govern \
		-window-out testdata/governed_windows_golden.ndjson > /dev/null

# Figure-10 smoke: the inter-thread distance traces (the ghost/main
# counter words read at every window boundary) diffed against the
# checked-in golden. Any drift means window scheduling or the sync
# mechanism changed behavior — fix it, or review and re-bless with
# `make fig10-golden`.
fig10-smoke:
	$(GO) run ./cmd/ghostbench -experiment fig10a -csv > FIG10.txt
	$(GO) run ./cmd/ghostbench -experiment fig10b -csv >> FIG10.txt
	diff -u testdata/fig10_golden.txt FIG10.txt

# Re-bless the figure-10 golden after a reviewed change. Inspect the diff
# before committing.
fig10-golden:
	$(GO) run ./cmd/ghostbench -experiment fig10a -csv > testdata/fig10_golden.txt
	$(GO) run ./cmd/ghostbench -experiment fig10b -csv >> testdata/fig10_golden.txt

# CLI smoke: gtrun's -profile and -dump modes diffed against goldens
# captured from the gtprof and gtasm commands they replaced (fix drift,
# or review it and re-bless with `make cli-golden`), the -dump output
# must assemble and run under -asm -interp, and a bad flag value must
# exit 2 with the tool's usage message (a Go panic also exits 2, so the
# message is checked too). The binaries are built rather than run with
# `go run`, which maps every non-zero exit to 1.
CLI_BIN ?= .cli_bin
cli-smoke:
	$(GO) build -o $(CLI_BIN)/ ./cmd/gtrun ./cmd/gttrace
	$(CLI_BIN)/gtrun -workload bfs.kron -scale profile -profile | diff -u testdata/gtrun_profile_golden.txt -
	$(CLI_BIN)/gtrun -workload camel -variant ghost -scale profile -dump | diff -u testdata/gtrun_dump_golden.txt -
	$(CLI_BIN)/gtrun -workload camel -variant ghost -scale profile -dump | $(CLI_BIN)/gtrun -asm /dev/stdin -interp
	@for cmd in "gtrun -scale bogus" "gttrace -rows 0"; do \
		tool=$${cmd%% *}; out=$$($(CLI_BIN)/$$cmd 2>&1); code=$$?; \
		case "$$code:$$out" in "2:$$tool: "*) ;; *) \
			echo "cli-smoke: $$cmd exited $$code, want 2 with a '$$tool:' usage message:" >&2; \
			echo "$$out" >&2; exit 1;; esac; \
	done

# Re-bless the CLI goldens after a reviewed change to the profile report
# or the assembly format. Inspect the diff before committing.
cli-golden:
	$(GO) run ./cmd/gtrun -workload bfs.kron -scale profile -profile > testdata/gtrun_profile_golden.txt
	$(GO) run ./cmd/gtrun -workload camel -variant ghost -scale profile -dump > testdata/gtrun_dump_golden.txt

ci: vet build race lint detlint verify-smoke results-smoke bench-smoke trace-smoke fault-smoke metrics-smoke governor-smoke fig10-smoke cli-smoke
