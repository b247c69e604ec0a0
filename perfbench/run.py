#!/usr/bin/env python3
"""Builds and runs the repository benchmark; checks outputs; prints metrics.

Usage (from the repository root):

    python3 perfbench/run.py                      # gated workloads, untraced
    python3 perfbench/run.py --workload quicksort --seed 3 --trace 1
    python3 perfbench/run.py --workload kv-serve --out runs.jsonl
    python3 perfbench/run.py --workload raytrace --trace 1

The default run covers the workloads BENCHMARK.json lists. raytrace is
not among them (its figures follow host contention too closely to gate,
see perfbench/README.md); it runs only when named.

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles ../src into an optimized build under $CARGO_TARGET_DIR
(default .bench_build). Each workload runs in a fresh perfbench process on
Topology::host() with pinned vprocs, one per cpu (kv-serve leaves one
cpu to the host).

Output: human lines (provenance, then "name value unit" per metric), and
as the last line one JSON object with the keys correct, attempted, failed
and metrics. Untraced runs (--trace 0) carry every end_to_end metric of
BENCHMARK.json, traced runs (--trace 1) every per_layer metric. --out FILE
appends the full record (provenance and every metric) as one JSON line,
the input of perfbench/compare.py. The exit code is 0 only when every
output check passed and every expected metric was measured.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNGATED_WORKLOADS = ("raytrace",)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def kv_settings(bench):
    """The kv-serve offered rates and p99 limit, as BENCHMARK.json records
    them in the workload's `why` (fixed absolute values, never calibrated)."""
    why = next(w["why"] for w in bench["workloads"] if w["name"] == "kv-serve")
    rate = re.search(r"fixed (\d+) req/s", why)
    ladder = re.search(r"ladder ([\d,]+) req/s", why)
    limit = re.search(r"p99 limit ([\d.]+) ms", why)
    if not (rate and ladder and limit):
        fail("kv-serve `why` in BENCHMARK.json lacks its rates or p99 limit")
    return rate.group(1), ladder.group(1), limit.group(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            fail("build failed")
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_sha256():
    """Digest of the sources the benchmark compiles (stable without git)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(binary, bench, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if workload == "kv-serve":
        rate, ladder, limit = kv_settings(bench)
        cmd += ["--rate", rate, "--ladder", ladder, "--p99-limit-ms", limit]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s "
             "(a request or solve never completed)")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no result record (exit code {p.returncode})")
    return record, p.returncode


def check(record, code, expected):
    """\returns the problems that make this run unusable."""
    problems = []
    if code != 0 or not record["correct"] or record["failed"]:
        problems.append(f"{record['failed']} of {record['attempted']} "
                        "outputs failed their check")
    for name in expected:
        m = record["metrics"].get(name)
        if m is None or not math.isfinite(m["value"]):
            problems.append(f"metric {name} was not measured")
    return problems


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    gated = tuple(w["name"] for w in bench["workloads"])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + gated + UNGATED_WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append full records (JSON lines) here")
    args = ap.parse_args()

    t0 = time.monotonic()
    binary = build()
    print(f"build: {time.monotonic() - t0:.1f} s", file=sys.stderr)

    table = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in bench[table]]
    workloads = gated if args.workload == "all" else (args.workload,)
    provenance = {"git_sha": git_sha(), "src_sha256": source_sha256()}
    results, problems = [], []
    for w in workloads:
        record, code = run_workload(binary, bench, args, w)
        record["provenance"].update(provenance)
        prov = record["provenance"]
        print(f"[{w}] " + " ".join(f"{k}={v}" for k, v in prov.items()))
        if prov["oversubscription"] > 1 or not prov["optimized"]:
            problems.append(f"{w}: oversubscribed or unoptimized run")
        print(f"[{w}] outputs checked: {record['attempted']}, "
              f"failed: {record['failed']}")
        for name, m in record["metrics"].items():
            print(f"[{w}] {name} {m['value']:.6g} {m['unit']}")
        problems += [f"{w}: {p}" for p in check(record, code, expected)]
        if args.out:
            with open(os.path.join(ROOT, args.out) if not os.path.isabs(
                    args.out) else args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
        results.append(record)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    def pick(record, prefix=""):
        return {prefix + n: record["metrics"][n] for n in expected
                if n in record["metrics"]}

    if len(results) == 1:
        metrics = pick(results[0])
    else:
        metrics = {}
        for r in results:
            metrics.update(pick(r, r["workload"] + "."))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
