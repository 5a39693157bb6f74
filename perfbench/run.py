#!/usr/bin/env python3
"""End-to-end benchmark of the Vantage simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload cmp4_vantage --seed 1 \
        --seconds 10 --trace 0

Builds the simulator's libraries and the perfbench binary into
.bench_build/ (first run only), then runs one workload:

  --trace 0  the end-to-end metrics, measured with tracing off.
             setup_s is the median of SETUP_SAMPLES cold constructions,
             each in a fresh process, half before and half after the
             measured run.
  --trace 1  the per-layer metrics from the traced mirror loop; the
             sampled spans go to .bench_build/out/*.trace.json.

Prints a "diagnostics: {...}" line (host, window rates, slow-state
share, wall time) and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. Exits 1 when an output check
failed and 2 when the benchmark cannot build or run. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SETUP_SAMPLES = 16
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configure once, then bring the perfbench target up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found; run from the repository "
            "root")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step failed: {' '.join(cmd)}: {e}")
        if r.returncode != 0:
            die(f"build step failed ({r.returncode}): {' '.join(cmd)}")


def run_binary(args, timeout):
    """Run perfbench; return (exit code, stdout lines)."""
    try:
        r = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout,
                           check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"perfbench {' '.join(args)}: {e}")
    return r.returncode, r.stdout.strip().splitlines()


def setup_samples(workload, seed, n):
    values = []
    for _ in range(n):
        code, lines = run_binary(["setup", "--workload", workload, "--seed",
                                  str(seed), "--out-dir", OUT_DIR], 60)
        if code != 0 or not lines:
            die(f"setup run failed ({code})")
        values.append(json.loads(lines[-1]))
    return values


def host_info():
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled",
                  encoding="utf-8") as f:
            info["thp"] = f.read().strip()
    except OSError:
        pass
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r} (known: {names})")
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    t_start = time.monotonic()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    setup = []
    if not args.trace:
        setup += setup_samples(args.workload, args.seed, SETUP_SAMPLES // 2)
    code, lines = run_binary(
        ["run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", OUT_DIR], RUN_TIMEOUT_S)
    if code not in (0, 1) or not lines:
        die(f"perfbench run exited with {code}")
    if not args.trace:
        setup += setup_samples(args.workload, args.seed,
                               SETUP_SAMPLES - SETUP_SAMPLES // 2)

    result = json.loads(lines[-1])
    diag = {}
    for line in lines[:-1]:
        if line.startswith("diagnostics: "):
            diag = json.loads(line[len("diagnostics: "):])
    raw = dict(result["metrics"])
    if setup:
        raw["setup_s"] = statistics.median(v["setup_s"] for v in setup)
        diag["setup_ms"] = [round(v["setup_s"] * 1e3, 4) for v in setup]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = raw.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die(f"metric {m['name']} missing or not finite: {v!r}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    diag.update(host_info())
    diag["workload"] = args.workload
    diag["seed"] = args.seed
    diag["total_wall_s"] = round(time.monotonic() - t_start, 3)
    diag["failures"] = result.get("failures", [])
    print("diagnostics: " + json.dumps(diag, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
