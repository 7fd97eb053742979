#!/usr/bin/env python3
"""Layered benchmark of the ghost-threading reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench Go program (module perfbench/, build outputs under
$CARGO_TARGET_DIR or .bench_build/), then measures one workload:

  --trace 0  fresh untraced processes, one measured pass each, as many as
             fit in S seconds (at least one, and two when a pass is shorter
             than S); prints the end-to-end metrics (medians).
  --trace 1  one untraced pass, then one traced walk of the same work with
             the layer probes after it; prints the per-layer metrics.

The last line of standard output is the result object. Details (host
stamp, every pass, spans) go to <build dir>/results/. The registry
builders fix their own input seeds, so --seed is recorded but changes no
input. Exits non-zero without a result when the program cannot be built.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fig6-membound", "fig6-compute", "fig9-4core", "governed-busy")
SETUP_SAMPLES = 11       # setup_s is the median of this many set-up processes
RUN_BUDGET_S = 170       # a run (after the build) must end within this
CHILD_TIMEOUT_S = 165

# Host time is measured as process CPU time (user+sys): on a shared
# virtual machine the wall clock also counts time the hypervisor gives to
# other guests, which made wall-time medians drift by 10-17% between runs.
# setup_s is the CPU time a process spends before the measured pass would
# start.
# Wall time is still recorded in the results file and on standard error.
END_TO_END = {
    "cpu_s": "s",
    "sim_cycles_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "ghost_geomean_x": "x",
    "compiler_geomean_x": "x",
    "prefetching_ghost_frac": "ratio",
}

# Per-layer metric -> unit. The Go program reports every one of these.
PER_LAYER = {
    "harness.redundant_sims": "count",
    "harness.silent_ghosts": "count",
    "workloads.build_s": "s",
    "profile.run_s": "s",
    "core.plan_s": "s",
    "core.targets": "count",
    "slice.extract_s": "s",
    "slice.silent_frac": "ratio",
    "sim.run_s.baseline": "s",
    "sim.run_s.swpf": "s",
    "sim.run_s.smt-openmp": "s",
    "sim.run_s.ghost": "s",
    "sim.run_s.compiler": "s",
    "sim.ns_per_cycle": "ns",
    "sim.loop_overhead_frac": "ratio",
    "cpu.instr_per_s": "1/s",
    "cpu.stepped_frac": "ratio",
    "cpu.ns_per_step": "ns",
    "cpu.ipc": "instr/cycle",
    "cpu.shadow_divergent": "count",
    "cache.ns_per_access": "ns",
    "cache.accesses_per_kinstr": "1/kinstr",
    "cache.l1_miss_frac": "ratio",
    "cache.llc_miss_per_kinstr": "1/kinstr",
    "cache.pf_accuracy": "ratio",
    "cache.pf_coverage": "ratio",
    "cache.pf_timeliness": "ratio",
    "mem.ns_per_request": "ns",
    "mem.dram_per_kinstr": "1/kinstr",
    "obs.windows": "count",
    "obs.sink_s": "s",
    "obs.overhead_frac": "ratio",
    "gov.decisions": "count",
    "gov.kills": "count",
    "isa.interp_instr_per_s": "1/s",
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Builds perfbench with every Go cache and config inside bdir."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(bdir, "gocache"),
        GOPATH=os.path.join(bdir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(bdir, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    exe = os.path.join(bdir, "perfbench")
    p = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                       capture_output=True, text=True, timeout=850)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout + p.stderr)
    return exe


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    env = dict(os.environ)
    env["GOMAXPROCS"] = str(nproc())
    return env


def spawn(exe, args):
    """Runs one perfbench process and returns its JSON output."""
    p = subprocess.run([exe] + args, cwd=ROOT, env=child_env(),
                       capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError("perfbench %s failed (exit %d):\n%s" % (" ".join(args), p.returncode, p.stderr))
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def source_id():
    """The git commit when there is one, else a hash of the Go sources."""
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0:
            return {"git_sha": p.stdout.strip()}
    except OSError:
        pass
    h = hashlib.sha256()
    skip = os.path.basename(build_dir())
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d != skip and not d.startswith("."))
        for f in sorted(filenames):
            if f.endswith(".go") or f == "go.mod":
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"source_sha256": h.hexdigest()}


def comparable(pass_out):
    """The simulated part of a pass, which must repeat exactly."""
    keys = ("rows", "attempted", "failed", "ghost_geomean_x", "compiler_geomean_x",
            "silent_ghosts", "prefetching_ghost_frac", "sim_cycles")
    return {k: pass_out[k] for k in keys}


def measure(exe, args, bdir, tag):
    """--trace 0: passes until the time is up; end-to-end metrics."""
    ledger = os.path.join(ROOT, "BENCH_fig6.json")
    start = time.monotonic()
    passes, setups, problems = [], [], []
    longest = 0.0
    while True:
        t = time.monotonic()
        passes.append(spawn(exe, ["-workload", args.workload, "-mode", "pass", "-ledger", ledger]))
        longest = max(longest, time.monotonic() - t)
        # Start another pass if it should end within --seconds, and take a
        # second one whenever a pass is shorter than --seconds.
        elapsed = time.monotonic() - start
        if elapsed + longest > RUN_BUDGET_S - 10:
            break
        if elapsed + longest > args.seconds and not (len(passes) < 2 and longest < args.seconds):
            break
    # Set-up is sampled in processes that stop right after it, so every
    # run takes the median of the same number of like samples.
    for _ in range(SETUP_SAMPLES):
        setups.append(spawn(exe, ["-workload", args.workload, "-mode", "setup"])["setup_cpu_s"])

    first = passes[0]
    for i, p in enumerate(passes):
        problems += ["pass %d: %s" % (i, msg) for msg in p["problems"] or []]
        if comparable(p) != comparable(first):
            problems.append("pass %d's simulated results differ from pass 0's" % i)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "sim_cycles_per_cpu_s": statistics.median(p["sim_cycles"] / p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1 - failed / attempted,
        "ghost_geomean_x": first["ghost_geomean_x"],
        "compiler_geomean_x": first["compiler_geomean_x"],
        "prefetching_ghost_frac": first["prefetching_ghost_frac"],
    }
    wall = statistics.median(p["wall_s"] for p in passes)
    log("%s: %d passes, cpu_s %s, wall_s %s, setup_s %s, silent_ghosts %d, ledger rows checked %d" % (
        args.workload, len(passes), ["%.3f" % p["cpu_s"] for p in passes],
        ["%.3f" % p["wall_s"] for p in passes], ["%.4f" % s for s in setups],
        first["silent_ghosts"], first["ledger_rows"]))
    detail = {"passes": passes, "setup_s": setups, "wall_s": wall,
              "sim_cycles_per_s": statistics.median(p["sim_cycles"] / p["wall_s"] for p in passes)}
    return values, END_TO_END, attempted, failed, problems, detail


def trace(exe, args, bdir, tag):
    """--trace 1: one untraced pass, then the traced walk; per-layer metrics."""
    p = spawn(exe, ["-workload", args.workload, "-mode", "pass"])
    expect = os.path.join(bdir, "results", tag + "-pass.json")
    with open(expect, "w") as fh:
        json.dump(p, fh)
    spans = os.path.join(bdir, "results", tag + "-spans.json")
    w = spawn(exe, ["-workload", args.workload, "-mode", "walk", "-expect", expect, "-spans", spans])
    problems = ["pass: " + m for m in p["problems"] or []] + ["walk: " + m for m in w["problems"] or []]
    values = dict(w["layers"])
    values["trace_overhead_frac"] = w["walk_cpu_s"] / p["cpu_s"] - 1
    for row, split in sorted(w["row_split_s"].items()):
        log("%-22s %s" % (row, "  ".join("%s=%.3f" % kv for kv in sorted(split.items()))))
    return values, PER_LAYER, p["attempted"], p["failed"], problems, {"pass": p, "walk": w}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
        exe = build(bdir)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    try:
        run = trace if args.trace else measure
        values, units, attempted, failed, problems, detail = run(exe, args, bdir, tag)
    except (BenchError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    for msg in problems:
        log("PROBLEM: " + msg)
    missing = [m for m in units if m not in values]
    if missing:
        problems.append("metrics not reported: %s" % ", ".join(missing))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "source": source_id(), "problems": problems,
              "metrics": values, "detail": detail}
    with open(os.path.join(bdir, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items() if m in values}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
