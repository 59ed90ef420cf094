#!/usr/bin/env python3
"""Build and run the scapgen benchmark.

Run from the root of a checkout:

    python3 scapbench/run.py                       # every workload, summary table
    python3 scapbench/run.py --workload paper_flow --seed 2007 --seconds 30 --trace 0

With --workload NAME the last line of stdout is the result JSON
({"correct", "attempted", "failed", "metrics"}). Without it, every workload
runs in turn (each in its own process) and the end-to-end metrics are
printed by name and unit. Either way the exit code is 1 if an output check
failed.

The benchmark binary is built from the sources in ../src with CMake into
.bench_build/scapbench under the checkout; the first run builds.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_flow", "screen_bulk", "repair_retrofit"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "scapbench"
BINARY = BUILD / "scapbench"
# Beyond --seconds a run sets up, finishes its last iteration (at most half an
# iteration past the deadline), checks its outputs and, when traced, replays
# single layers.
RUN_MARGIN_S = 140


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then let CMake rebuild whatever changed."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind: the next run reconfigures.
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "scapbench", "-j", str(nproc())]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def workload_env(threads):
    """The binary configures obs itself: drop every SCAP_* override, then size
    the rt pool (all usable cores unless `threads` is given)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCAP_")}
    env["SCAP_THREADS"] = str(threads or nproc())
    return env


def run_workload(workload, seed, seconds, trace, threads=0, spans=None):
    """Run one workload in its own process; return (stdout lines, result).

    The binary prints its result line last and exits 0, or 1 if a check
    failed; anything else means it printed no result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=workload_env(threads), timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"scapbench: {workload} did not finish within {timeout} s")
        return [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or proc.returncode != (0 if result.get("correct") else 1):
        log(f"scapbench: {workload} exited with code {proc.returncode} and no result line")
        return lines, None
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2007)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        log("scapbench: build failed")
        return 1

    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else WORKLOADS
    rows, ok = [], True
    for w in workloads:
        spans = spans_dir / f"{w}-seed{args.seed}.json" if args.trace else None
        lines, result = run_workload(w, args.seed, args.seconds, args.trace, spans=spans)
        if result is None:
            return 1
        if args.workload:
            print("\n".join(lines + [json.dumps(result)]), flush=True)
            return 0 if result["correct"] else 1
        log("\n".join(lines))
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
        rows.append((w, "checks_failed", f"{result['failed']}/{result['attempted']}", ""))
    width = max(len(r[1]) for r in rows)
    for w, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{w:<16} {name:<{width}} {shown:>14} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
