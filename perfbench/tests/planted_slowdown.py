#!/usr/bin/env python3
"""Planted-slowdown self-check of the benchmark's comparison.

    python3 perfbench/tests/planted_slowdown.py [--build-dir DIR]

Runs sim-large-ring and soak-steady with colex_perfbench and with its
test-only twin colex_perfbench_planted, whose sim scheduler busy-waits
before every pick for about 10% of a sim-large-ring step. compare.py must
flag pulses_per_s on sim-large-ring as worse and flag nothing on
soak-steady, which never reaches the wrapped scheduler. Exits 1 otherwise.
Results go to .bench_results/planted/{base,planted}/.
"""
import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402
import run  # noqa: E402

PLANTED_SHARE = 0.10
# The soak is the control; a run of ten short chunks is enough. sim-large-ring
# runs as long as a benchmark run (3 to 5 elections): at 10 s, one or two
# elections a run, host noise turned 2 of 10 pairs of a 14% slowdown around.
SOAK_SECONDS = 2
# Pairs per workload: compare.py's 9-in-10 sign test needs ten.
PAIRS = 10


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", help="an existing perfbench build")
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = {"sim-large-ring": bench["run_seconds"], "soak-steady": SOAK_SECONDS}
    bdir = args.build_dir or run.build(("colex_perfbench", "colex_perfbench_planted"))
    out = os.path.join(run.ROOT, ".bench_results", "planted")
    shutil.rmtree(out, ignore_errors=True)
    base_dir = os.path.join(".bench_results", "planted", "base")
    planted_dir = os.path.join(".bench_results", "planted", "planted")
    seeds = list(range(1, PAIRS + 1))

    def one(binary, results_dir, workload, seed, delay_ns):
        r = run.run_workload(workload, seed, seconds[workload], 0, binary=binary,
                             results_dir=results_dir, bdir=bdir,
                             env={"PERFBENCH_PICK_DELAY_NS": str(delay_ns)})
        if r is None or not r["correct"]:
            sys.exit(f"{binary} failed on {workload} seed {seed}")
        return r

    # Size the delay from one base run: one pick per delivered pulse.
    first = one("colex_perfbench", base_dir, "sim-large-ring", seeds[0], 0)
    delay_ns = round(PLANTED_SHARE * 1e9 / first["metrics"]["pulses_per_s"]["value"])
    print(f"planted delay: {delay_ns} ns per pick")
    sides = [("colex_perfbench", base_dir), ("colex_perfbench_planted", planted_dir)]
    for workload in ("sim-large-ring", "soak-steady"):
        for i, s in enumerate(seeds):  # pairs, alternating which side runs first
            for binary, results_dir in sides[::1 if i % 2 else -1]:
                if (workload, s, binary) != ("sim-large-ring", seeds[0], "colex_perfbench"):
                    one(binary, results_dir, workload, s, delay_ns)

    rows = compare.compare(compare.load_results(os.path.join(run.ROOT, base_dir)),
                           compare.load_results(os.path.join(run.ROOT, planted_dir)),
                           bench["end_to_end"])
    ok = True
    for workload, name, a, b, gain, v, _ in rows:
        print(f"{workload:16} {name:18} {a:14.6g} -> {b:14.6g} {gain:+8.2%} {v}")
        if workload == "soak-steady" and v == "worse":
            ok = False
    flagged = [r for r in rows if r[:2] == ("sim-large-ring", "pulses_per_s")]
    if not flagged or flagged[0][5] != "worse":
        ok = False
    print("planted slowdown " + ("flagged as expected" if ok else "NOT flagged as expected"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
