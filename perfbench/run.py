#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload serve-mixed|serve-align-100k|pipeline
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of an exea checkout. The harness (perfbench/, a CMake
package of its own that compiles the library layers from ../src) is built
into .bench_build/perfbench on first use and rebuilt incrementally after.
The last line of standard output is the run's JSON verdict; everything
above it is the run context, every metric and every output check.
A traced run also prints its tracing overhead against the untraced run
of the same workload, seed and sources, when this checkout holds one.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def source_identity():
    """The git sha when there is one, and a hash of the sources built."""
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    tree = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                tree.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    tree.update(f.read())
    return sha, tree.hexdigest()


def trace_overhead(workload, seed, tree):
    """Lines comparing this traced run's end-to-end values with the
    untraced run of the same workload, seed and sources, if one was
    recorded in this checkout."""
    paths = [os.path.join(WORK, f"{workload}-seed{seed}{suffix}.result.json")
             for suffix in ("-traced", "")]
    runs = []
    for path in paths:
        if os.path.exists(path):
            with open(path) as f:
                runs.append(json.load(f))
    if len(runs) < 2 or any(run["context"].get("source_tree_sha") != tree
                            for run in runs):
        return [f"trace_overhead: no untraced run of {workload} seed {seed} "
                f"on these sources recorded in this checkout"]
    on, off = runs[0]["metrics"], runs[1]["metrics"]
    lines = [f"trace_overhead: traced vs untraced, seed {seed}"]
    for name in ("p50_ms.light", "p99_ms.light", "p50_ms.heavy",
                 "p99_ms.heavy", "capacity_qps", "pipeline_s", "setup_s"):
        if name in on and name in off and off[name]["value"]:
            a, b = on[name]["value"], off[name]["value"]
            lines.append(f"trace_overhead {name:14s} traced {a:.6g} "
                         f"untraced {b:.6g} ({(a - b) / b:+.1%})")
    return lines


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("perfbench: build failed (is this the root of an exea checkout?)")
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "loadgen_selftest")]
                              ).returncode

    os.makedirs(WORK, exist_ok=True)
    sha, tree = source_identity()
    env = dict(os.environ, PERFBENCH_GIT_SHA=sha, PERFBENCH_TREE_SHA=tree)
    command = [os.path.join(BUILD, "exea_perfbench"), "--workload",
               args.workload, "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--workdir", WORK]
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        print("\n".join(lines))
        if run.returncode < 0:
            log(f"perfbench: harness killed by signal "
                f"{signal.Signals(-run.returncode).name}")
        else:
            log(f"perfbench: harness exited with code {run.returncode}")
        return 1
    print("\n".join(lines[:-1]))
    if args.trace == "1":
        print("\n".join(trace_overhead(args.workload, args.seed, tree)))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
