#!/usr/bin/env python3
"""Self-test of the scapgen benchmark.

Run from the root of a checkout:

    python3 scapbench/selftest.py [--held-out-seed 4099]

For every workload it checks that
  * the output digest is identical with the rt pool at 1 thread and at all
    cores (the library's bit-identical-at-any-thread-count contract),
  * every output check passes at seed 2007 and at a held-out seed,
  * the traced run reproduces the untraced digest,
and it reports the tracing overhead (traced minus untraced flow_s) and the
ATPG share of the traced flow. paper_flow must attribute at least 90% of its
flow to the two ATPG calls, and screen_bulk must make no PODEM calls.
Exits 1 if anything fails.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def one(workload, seed, trace=0, threads=0):
    """One iteration of a workload; returns (digest, result) or exits."""
    lines, result = bench.run_workload(workload, seed, 0, trace, threads)
    if result is None:
        sys.exit(f"selftest: {workload} seed {seed} did not produce a result")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return digest, result


def metric(result, name):
    return result["metrics"][name]["value"]


def main():
    ap = argparse.ArgumentParser(description="Self-test of the scapgen benchmark")
    ap.add_argument("--held-out-seed", type=int, default=4099)
    args = ap.parse_args()
    if not bench.build():
        sys.exit("selftest: build failed")

    failures = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in bench.WORKLOADS:
        print(w, flush=True)
        d1, r1 = one(w, 2007, threads=1)
        dn, rn = one(w, 2007)
        expect(r1["correct"] and rn["correct"], "checks pass at seed 2007")
        expect(d1 == dn, f"digest at 1 thread == at {bench.nproc()} threads ({dn})")

        _, rh = one(w, args.held_out_seed)
        expect(rh["correct"],
               f"checks pass at held-out seed {args.held_out_seed} "
               f"({rh['attempted'] - rh['failed']}/{rh['attempted']})")

        dt, rt = one(w, 2007, trace=1)
        expect(rt["correct"] and dt == dn, "traced run: checks pass, same digest")
        traced = metric(rt, "trace.flow_s")
        overhead = metric(rt, "trace.overhead_s")
        print(f"  tracing overhead: traced flow_s {traced:.3f} s, untraced "
              f"{traced - overhead:.3f} s, difference {overhead:+.3f} s "
              f"({100.0 * overhead / (traced - overhead):+.1f}%)")
        share = metric(rt, "trace.atpg_share")
        print(f"  ATPG share of the traced flow: {100.0 * share:.1f}% "
              f"(atpg.run timer: {100.0 * metric(rt, 'trace.atpg_run_share'):.1f}%)")
        if w == "paper_flow":
            expect(share >= 0.9, "paper_flow: the two ATPG calls take >= 90% of flow_s")
        if w == "screen_bulk":
            expect(metric(rt, "atpg.podem_generates") == 0
                   and metric(rt, "atpg.podem_extends") == 0,
                   "screen_bulk: no Podem::generate / extend calls")

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
