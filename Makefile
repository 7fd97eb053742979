GO ?= go
TRACE_OUT ?= TRACE_camel_ghost.json

.PHONY: build vet perfbench-build test race lint lint-golden detlint verify-smoke verify-golden results-smoke results-golden profile-fig6 trace-smoke fault-smoke fault-golden metrics-smoke metrics-golden governor-smoke governor-golden fig9-smoke fig9-golden fig10-smoke fig10-golden cli-smoke cli-golden traffic-cover ci

build:
	$(GO) build ./...

# go vet plus a formatting gate: any file gofmt would rewrite fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt would reformat:" >&2; echo "$$out" >&2; exit 1; fi

# perfbench is its own Go module (replace ghostthread => ../), which the
# root vet and build never compile: without this, a library change that
# breaks one of its calls shows up only when the benchmark runs.
perfbench-build:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench build ./...

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
# verifier battery (exit 1 on any error-severity finding), with the
# minimality report, diffed against the checked-in golden. The golden
# pins every race and minimality finding, so a finding that appears or
# vanishes fails the gate — fix it, or review the diff and re-bless with
# `make lint-golden`.
lint:
	$(GO) run ./cmd/gtlint -all -v -json > LINT_all.json
	diff -u testdata/lint_golden.json LINT_all.json

# Re-bless the lint golden after a reviewed change to a checker. Inspect
# the diff before committing.
lint-golden:
	$(GO) run ./cmd/gtlint -all -v -json > testdata/lint_golden.json

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

# Results smoke: the full figure-6 and figure-8 tables (34 rows each on
# the idle and the busy machine: selection, targets, baseline cycles,
# every column's speedup and energy saving, and the prefetch reports) and
# figure 3 (the three Camel forms) diffed against checked-in goldens. The
# simulator is deterministic, so any drift means a simulated number moved
# — fix it, or review the diff and re-bless with `make results-golden`.
# The grep drops the simulated-cycle totals, which vary with how the
# harness shares runs; the figure-6 and figure-8 goldens are therefore
# line diffs, not valid JSON.
RESULTS_FILTER = grep -v -E '"(simulated_cycles|sim_cycles)":'
results-smoke:
	$(GO) run ./cmd/ghostbench -experiment fig6 -json -quiet | $(RESULTS_FILTER) > RESULTS_fig6.json
	diff -u testdata/fig6_golden.json RESULTS_fig6.json
	$(GO) run ./cmd/ghostbench -experiment fig8 -json -quiet | $(RESULTS_FILTER) > RESULTS_fig8.json
	diff -u testdata/fig8_golden.json RESULTS_fig8.json
	$(GO) run ./cmd/ghostbench -experiment fig3 > RESULTS_fig3.txt
	diff -u testdata/fig3_golden.txt RESULTS_fig3.txt

# Re-bless the results goldens after a reviewed change that moves a
# simulated number. Explain the diff in CHANGES.md.
results-golden:
	$(GO) run ./cmd/ghostbench -experiment fig6 -json -quiet | $(RESULTS_FILTER) > testdata/fig6_golden.json
	$(GO) run ./cmd/ghostbench -experiment fig8 -json -quiet | $(RESULTS_FILTER) > testdata/fig8_golden.json
	$(GO) run ./cmd/ghostbench -experiment fig3 > testdata/fig3_golden.txt

# Profiling entry point for perf work: a 4-workload figure-6 slice
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
# then the resilience sweep at profile scale (5 workloads x 5 fault
# levels: cycles, speedups and every injected-fault count) diffed against
# the checked-in golden. It is the only gate on faulted cycle counts; one
# worker keeps the streamed rows in input order. Review a diff, then
# re-bless with `make fault-golden`.
fault-smoke:
	$(GO) test ./internal/sim -run 'TestFault|TestBudget' -count=1
	$(GO) run ./cmd/ghostbench -experiment resilience -scale profile -j 1 -json -quiet > FAULT_resilience.json
	diff -u testdata/resilience_golden.ndjson FAULT_resilience.json

# Re-bless the resilience golden after a reviewed change to fault
# injection or faulted timing. Inspect the diff before committing.
fault-golden:
	$(GO) run ./cmd/ghostbench -experiment resilience -scale profile -j 1 -json -quiet > testdata/resilience_golden.ndjson

# Telemetry smoke: the windowed time-series NDJSON for camel/ghost at
# profile scale diffed against the checked-in golden (the stream is
# deterministic, so any drift means window accounting changed behavior —
# fix it, or review and re-bless with `make metrics-golden`), then
# gtmon -once must ingest every line of that stream (samples ingested =
# line count, no bad lines). Chrome counter-track export is validated by
# TestChromeTraceWindowsCounters in tier-1.
metrics-smoke:
	$(GO) run ./cmd/gtrun -workload camel -variant ghost -scale profile \
		-window 20000 -window-out METRICS_camel.ndjson > /dev/null
	diff -u testdata/metrics_golden.ndjson METRICS_camel.ndjson
	@prom=$$($(GO) run ./cmd/gtmon -in METRICS_camel.ndjson -once) && \
		n=$$(wc -l < METRICS_camel.ndjson | tr -d ' ') && \
		echo "$$prom" | grep -qx "ghostsim_samples_ingested_total $$n" && \
		echo "$$prom" | grep -qx 'ghostsim_bad_lines_total 0' || \
		{ echo "metrics-smoke: gtmon -once did not ingest all $$n lines of METRICS_camel.ndjson cleanly:" >&2; \
		  echo "$$prom" | grep -E '^ghostsim_(samples_ingested|bad_lines)_total' >&2; exit 1; }

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
# then re-bless every governor golden with `make governor-golden`.
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

# Re-bless the governor goldens after a reviewed change: the idle rows
# and camel window stream above, and the busy-machine rows
# TestGovernorBusyGolden checks. Inspect the diff before committing.
governor-golden:
	$(GO) run ./cmd/ghostbench -experiment governor -json -quiet > testdata/governor_golden.ndjson
	$(GO) run ./cmd/gtrun -workload camel -variant ghost -scale profile -govern \
		-window-out testdata/governed_windows_golden.ndjson > /dev/null
	$(GO) test ./internal/harness -run TestGovernorBusyGolden -count=1 -update

# Figure-9 smoke: the multi-core scaling study on three kernel.graph rows
# (unrounded geomeans and every run's cycles per core count) diffed
# against the checked-in golden. These are the only runs where several
# cores share the LLC, memory controller and memory image, so any drift
# means multi-core stepping changed behavior — fix it, or review the diff
# and re-bless with `make fig9-golden`.
FIG9_ROWS = bfs.kron,cc.urand,pr.urand
fig9-smoke:
	$(GO) run ./cmd/ghostbench -experiment fig9 -workloads $(FIG9_ROWS) -json -quiet > FIG9.json
	diff -u testdata/fig9_golden.json FIG9.json

# Re-bless the figure-9 golden after a reviewed change. Inspect the diff
# before committing.
fig9-golden:
	$(GO) run ./cmd/ghostbench -experiment fig9 -workloads $(FIG9_ROWS) -json -quiet > testdata/fig9_golden.json

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
# must assemble and run under -asm -interp, and a bad flag value (or a
# fig9 workload with no multi-core variant) must exit 2 with the tool's
# usage message (a Go panic also exits 2, so the message is checked too).
# The binaries are built rather than run with `go run`, which maps every
# non-zero exit to 1.
CLI_BIN ?= .cli_bin
cli-smoke:
	$(GO) build -o $(CLI_BIN)/ ./cmd/gtrun ./cmd/gttrace ./cmd/ghostbench
	$(CLI_BIN)/gtrun -workload bfs.kron -scale profile -profile | diff -u testdata/gtrun_profile_golden.txt -
	$(CLI_BIN)/gtrun -workload camel -variant ghost -scale profile -dump | diff -u testdata/gtrun_dump_golden.txt -
	$(CLI_BIN)/gtrun -workload camel -variant ghost -scale profile -dump | $(CLI_BIN)/gtrun -asm /dev/stdin -interp
	@for cmd in "gtrun -scale bogus" "gttrace -rows 0" "ghostbench -experiment fig9 -workloads camel"; do \
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

# Traffic audit (not part of ci): build every command with coverage,
# run the smoke targets' commands plus the fig8 and sweep experiments,
# and list the functions that traffic never entered (0.0%). Each listed
# function must be error handling, a safety check, a test oracle, an
# accessor tests call, or a user-selected output; anything else is dead
# model, pass or option code. -coverpkg must include the main packages
# themselves: a binary built with a -coverpkg list that leaves them out
# writes no counters at all. Takes about 10 min on 2 vCPUs.
COVER_DIR ?= .cover
traffic-cover:
	rm -rf $(COVER_DIR) && mkdir -p $(COVER_DIR)/bin $(COVER_DIR)/data $(COVER_DIR)/out
	$(GO) build -cover -coverpkg=ghostthread/... -o $(COVER_DIR)/bin/ ./cmd/...
	@set -e; b=$(COVER_DIR)/bin; o=$(COVER_DIR)/out; export GOCOVERDIR=$(COVER_DIR)/data; \
	run() { echo "+ $$*" >&2; "$$@"; }; \
	run $$b/gtlint -all -v -json > $$o/lint.json || true; \
	run $$b/detlint > $$o/detlint.txt; \
	run $$b/gtverify -all -json > $$o/verify.json; \
	run $$b/ghostbench -experiment fig6 -json -quiet > $$o/fig6.json; \
	run $$b/ghostbench -experiment fig3 > $$o/fig3.txt; \
	run $$b/ghostbench -experiment fig8 -json -quiet > $$o/fig8.json; \
	run $$b/ghostbench -experiment sweep > $$o/sweep.txt; \
	run $$b/ghostbench -experiment fig9 -workloads $(FIG9_ROWS) -json -quiet > $$o/fig9.json; \
	run $$b/ghostbench -experiment fig10a -csv > $$o/fig10.txt; \
	run $$b/ghostbench -experiment fig10b -csv >> $$o/fig10.txt; \
	run $$b/ghostbench -experiment resilience -scale profile -j 1 -json -quiet > $$o/resilience.ndjson; \
	run $$b/ghostbench -experiment governor -json -quiet > $$o/gov.ndjson; \
	run $$b/gttrace -workload camel -variant ghost -chrome $$o/trace.json; \
	run $$b/gttrace -validate $$o/trace.json; \
	run $$b/gtrun -workload camel -variant ghost -scale profile -window 20000 -window-out $$o/metrics.ndjson > /dev/null; \
	run $$b/gtmon -in $$o/metrics.ndjson -once > /dev/null; \
	run $$b/gtrun -workload camel -variant ghost -scale profile -govern -window-out $$o/govwin.ndjson > /dev/null; \
	run $$b/gtrun -workload bfs.kron -scale profile -profile > /dev/null; \
	run $$b/gtrun -workload camel -variant ghost -scale profile -dump > $$o/dump.s; \
	run $$b/gtrun -asm $$o/dump.s -interp > /dev/null; \
	for cmd in "gtrun -scale bogus" "gttrace -rows 0" "ghostbench -experiment fig9 -workloads camel"; do \
		run $$b/$$cmd > /dev/null 2>&1 || true; done
	$(GO) tool covdata func -i=$(COVER_DIR)/data | grep -E '[[:space:]]0\.0%$$'

ci: vet build perfbench-build race lint detlint verify-smoke results-smoke trace-smoke fault-smoke metrics-smoke governor-smoke fig9-smoke fig10-smoke cli-smoke
