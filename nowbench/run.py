#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 nowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the nowbench package (the simulator libraries plus the nowbench
binary from bench.cc) under .bench_build/, runs its self-test, then runs one
workload of BENCHMARK.json and prints one JSON object as the last line
of stdout. With --trace 0 the object carries the end-to-end metrics;
set-up time is the median over several fresh processes of the time from
spawning the nowbench binary to its first timed call. With --trace 1 it carries
the per-layer metrics of one traced run, whose spans land next to the
result in .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-sweep", "fattree-1024", "analytic-grid")
# Fresh processes timed for setup_s. analytic-grid builds three models
# per set-up, so it takes fewer samples.
SETUP_SAMPLES = {"paper-sweep": 7, "fattree-1024": 7, "analytic-grid": 3}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("nowbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def build_dir():
    # Keyed by checkout path: a CMake cache cannot move between trees.
    tag = hashlib.sha1(ROOT.encode()).hexdigest()[:10]
    return os.path.join(BUILD_ROOT, "nowbench-" + tag)


def build(bdir):
    """Configure (once) and build; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_rev():
    """git revision when the checkout is a repository, plus a digest of
    the sources the binary is built from (always available)."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "nowbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as f:
                        h.update(f.read() + b"\0")
    return "git-%s,src-%s" % (rev, h.hexdigest()[:12])


def run_bench(exe, args, deadline):
    """Run the nowbench binary; return (seconds from spawn to its first timed
    call, stdout lines, parsed last line)."""
    t0 = time.monotonic()
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=max(1, deadline - t0))
    except subprocess.TimeoutExpired:
        fail("nowbench exceeded the run budget")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("nowbench exited with code %d" % r.returncode)
    try:
        last = json.loads(lines[-1])
    except ValueError:
        fail("nowbench's last line is not JSON: " + lines[-1][:200])
    return last["ready_monotonic"] - t0, lines[:-1], last


def main():
    # On SIGTERM, exit through subprocess.run, which kills and reaps the
    # child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    bdir = build_dir()
    build(bdir)
    exe = os.path.join(bdir, "nowbench")
    r = subprocess.run([os.path.join(bdir, "nowbench_selftest")],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("self-test failed")

    out = os.path.join(BUILD_ROOT, "results", "%s-seed%d-trace%d" %
                       (a.workload, a.seed, a.trace))
    os.makedirs(out, exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace),
            "--out", out, "--rev", source_rev()]
    deadline = time.monotonic() + RUN_TIMEOUT_S

    setup = []
    if not a.trace:
        for _ in range(SETUP_SAMPLES[a.workload] - 1):
            setup.append(run_bench(exe, args + ["--setup-only"],
                                   deadline)[0])
    ready, lines, res = run_bench(exe, args, deadline)
    setup.append(ready)
    for line in lines:
        print(line)

    metrics = res["metrics"]
    if not a.trace:
        print("setup     : %s s (median of %d processes)" %
              (" ".join("%.4f" % s for s in setup), len(setup)))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != names:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(names) - set(got)), sorted(set(got) - set(names))))

    result = {"correct": bool(res["correct"]),
              "attempted": int(res["attempted"]),
              "failed": int(res["failed"]),
              "metrics": {m["name"]: metrics[m["name"]] for m in wanted}}
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(dict(result, digest=res["digest"], log=lines), f, indent=1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
