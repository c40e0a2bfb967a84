#!/usr/bin/env python3
"""Repository benchmark: builds the simulator driver and runs one workload.

    python3 perfbench/run.py --workload pool_read --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds two
variants of perfbench/driver.cc under $CARGO_TARGET_DIR (default
.bench_build): a plain optimized build for the end-to-end metrics and a
-DPOLAR_PROF=ON build for the traced run. Later runs only re-check them.

--trace 0 runs the plain driver and prints the end-to-end metrics.
--trace 1 runs the profiled driver for the per-layer metrics, then the plain
driver with the same seed, checks that every simulated number is identical
between the two, and reports the profiler's host-time overhead.

Human-readable report lines go to stdout first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The full result
(every value, provenance, checks) is also written to
<build dir>/results/<workload>-seed<seed>-trace<t>.json, and the traced
run's spans to <build dir>/traces/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def catalog(key):
    """name -> (unit, better) for one metric list of BENCHMARK.json. "sim_"
    units are virtual-clock quantities; plain s/us/ns units are host CPU
    time."""
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}


WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = catalog("end_to_end")
# Per-layer metrics, reported by the traced run. A layer the workload does
# not exercise (or whose driver result does not expose it) reads 0.
PER_LAYER = catalog("per_layer")

# Workload-specific end-to-end numbers: printed in the report and kept in
# the result file, but not on the result line, which carries only metrics
# every workload defines.
HEADLINE = {
    "p50_us": ("sim_us", "lower"),
    "p99_us": ("sim_us", "lower"),
    "goodput": ("1/sim_s", "higher"),
    "overload_goodput": ("1/sim_s", "higher"),
    "capacity_ops_s": ("1/sim_s", "higher"),
    "error_rate": ("frac", "lower"),
    "overload_error_rate": ("frac", "lower"),
    "pre_crash_qps": ("1/sim_s", "higher"),
    "recovery_s": ("sim_s", "lower"),
    "rewarm_s": ("sim_s", "lower"),
    "lane_steps": ("count", "lower"),
}

# Values that depend only on the simulated run: a traced run must reproduce
# them exactly.
SIMULATED = ["sim_digest", "qps", *HEADLINE]

VARIANTS = {
    "plain": ["-DPOLAR_PROF=OFF"],
    "prof": ["-DPOLAR_PROF=ON"],
}

# Wall-clock budget for all driver processes of one run (after the build).
RUN_BUDGET_S = 170

# An untraced run of a workload that forks a snapshotted world splits its
# --seconds over this many driver processes and takes the median of their
# host-time estimates: on a shared host one process can run 10-20 % slower
# than the next for its whole life, which more forks inside it cannot
# average out. Workloads whose driver builds a fresh world for every call
# already sample that variation call by call, and use one process.
PROCESSES = 3
COLD_ONLY = {"mp_share", "crash_recover"}
HOST_TIMES = ["setup_s", "host_us_per_op", "peak_rss_mb",
              "harness.cold_run_s", "harness.fork_s"]


class BenchError(Exception):
    pass


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(variant):
    """Configures (once) and builds one driver variant; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = os.path.join(build_root(), variant)
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(logfile, "w") as logf:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen + VARIANTS[variant]
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
                raise BenchError("configure failed, see " + logfile)
        cmd = ["cmake", "--build", out, "-j", jobs]
        if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
            raise BenchError("build failed, see " + logfile)
    return os.path.join(out, "perfbench_driver")


def build_all():
    """Builds every variant under one lock (concurrent runs wait)."""
    os.makedirs(build_root(), exist_ok=True)
    with open(os.path.join(build_root(), ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return {v: build(v) for v in VARIANTS}


def run_driver(binary, workload, seed, seconds, smoke=False, trace_out=None,
               deadline=None):
    """Runs one driver process (killed at the monotonic `deadline`) and
    returns its parsed JSON output."""
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("driver exited %d: %s" % (proc.returncode,
                                                   proc.stderr.strip()))
    try:
        return json.loads(proc.stdout)
    except ValueError:
        raise BenchError("driver printed no JSON result")


def run_plain(binary, workload, seed, seconds, smoke, deadline):
    """Untraced run over PROCESSES driver processes, merged into one result.
    Every process must reproduce the same simulated run."""
    n = 1 if smoke or workload in COLD_ONLY else PROCESSES
    runs = [run_driver(binary, workload, seed, seconds / n, smoke,
                       deadline=deadline) for _ in range(n)]
    first = runs[0]
    merged = dict(first, values=dict(first["values"]))
    for name in HOST_TIMES:
        if name in first["values"]:
            merged["values"][name] = statistics.median(
                r["values"][name] for r in runs)
    merged["failures"] = [f for r in runs for f in r["failures"]]
    for key in ("attempted", "failed", "checks"):
        merged[key] = sum(r[key] for r in runs)
    merged["samples"] = {k: [x for r in runs for x in r["samples"].get(k, [])]
                         for k in first["samples"]}
    for r in runs[1:]:
        merged["checks"] += 1
        moved = [k for k in SIMULATED
                 if r["values"].get(k) != first["values"].get(k)]
        if moved:
            merged["failed"] += 1
            merged["failures"].append("processes disagree on " + ", ".join(moved))
    return merged


def provenance(info):
    """Build and host facts: driver-reported plus source revision."""
    keys = ["host_cpus", "world_threads", "simd", "build_type", "lto",
            "polar_prof", "compiler"]
    prov = {k: info.get(k, "") for k in keys}
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    prov["git_rev"] = rev
    prov["src_digest"] = source_digest()
    return prov


def source_digest():
    """SHA-256 over the simulator and benchmark sources (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def metric_line(name, value, unit, better):
    return "  %-30s %22.10g %-10s (%s is better)" % (name, value, unit, better)


def run(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (result line dict, full result dict)."""
    binaries = build_all()
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(os.path.join(build_root(), "results"), exist_ok=True)
    if trace:
        os.makedirs(os.path.join(build_root(), "traces"), exist_ok=True)
        spans = os.path.join(build_root(), "traces",
                             "%s-seed%d.json" % (workload, seed))
        traced = run_driver(binaries["prof"], workload, seed, seconds, smoke,
                            trace_out=spans, deadline=deadline)
        plain = run_plain(binaries["plain"], workload, seed, seconds, smoke,
                          deadline)
        raw = traced
        # End-to-end and headline values from the untraced run, per-layer
        # values from the traced one.
        values = dict(plain["values"])
        values.update({k: v for k, v in traced["values"].items()
                       if k in PER_LAYER})
        values["traced_host_us_per_op"] = traced["values"]["host_us_per_op"]
        base = plain["values"]["host_us_per_op"]
        values["prof.tracing_overhead_frac"] = (
            values["traced_host_us_per_op"] - base) / base
        mismatched = [k for k in SIMULATED
                      if traced["values"].get(k) != plain["values"].get(k)]
        failures = traced["failures"] + plain["failures"] + [
            "traced run moved simulated value " + k for k in mismatched]
        attempted = traced["attempted"] + plain["attempted"]
        failed = traced["failed"] + plain["failed"] + len(mismatched)
        checks = traced["checks"] + plain["checks"] + len(SIMULATED)
        catalog = PER_LAYER
    else:
        raw = run_plain(binaries["plain"], workload, seed, seconds, smoke,
                        deadline)
        values = dict(raw["values"])
        failures = raw["failures"]
        attempted, failed, checks = raw["attempted"], raw["failed"], raw["checks"]
        catalog = END_TO_END

    metrics = {}
    for name, (unit, _) in catalog.items():
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
    line = {"correct": failed == 0 and not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    full = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "why": WORKLOADS[workload],
            "provenance": provenance(raw["info"]),
            "shape": raw["info"].get("shape", ""),
            "checks_run": checks, "failures": failures,
            "values": values, "samples": raw.get("samples", {}),
            "line": line}
    return line, full


def report(full):
    """Human-readable lines, printed before the result line."""
    print("workload %s (seed %d): %s" % (full["workload"], full["seed"],
                                         full["shape"]))
    print("provenance: " + json.dumps(full["provenance"], sort_keys=True))
    values = full["values"]
    sections = [("end to end", END_TO_END), ("workload headline", HEADLINE)]
    if full["trace"]:
        sections.append(("per layer", PER_LAYER))
    for title, catalog in sections:
        print(title + ":")
        for name, (unit, better) in catalog.items():
            if name in values:
                print(metric_line(name, values[name], unit, better))
    print("checks: %d run, %d failed" % (full["checks_run"],
                                         len(full["failures"])))
    for f in full["failures"]:
        print("  FAILED " + f)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        line, full = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    path = os.path.join(build_root(), "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    report(full)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
