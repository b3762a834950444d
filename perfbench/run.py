#!/usr/bin/env python3
"""Run one workload of the election benchmark.

    python3 perfbench/run.py --workload sim-large-ring --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ and the library sources it
uses with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload, writes
.bench_results/<workload>-seed<N>-trace<T>.json (with an environment block:
nproc, compiler, build type, git sha) and prints the result as the last line
of stdout:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics (0 for layers the workload does not run, as listed in
perfbench/layers.json). Exits non-zero when the build fails or any election
misses the paper's exact pulse count or a unique max-ID leader.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets=("colex_perfbench",)):
    """Configures once, then builds `targets`; returns the build directory."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", *targets, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return bdir


def git_sha():
    """HEAD's commit read from .git directly (no git process, no search
    outside the checkout); 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def select_metrics(bench, layers, workload, trace, measured):
    """The BENCHMARK.json metric set of this run, with units. Per-layer
    metrics of layers the workload does not run read 0; any other missing
    metric is an error."""
    out = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        if name in measured:
            value = measured[name]
        elif trace and name.split(".")[0] not in layers["workloads"][workload]["layers"]:
            value = 0.0
        else:
            raise KeyError(f"{workload} did not report {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run_workload(workload, seed, seconds, trace, binary="colex_perfbench",
                 results_dir=".bench_results", env=None, bdir=None):
    """Runs one workload, writes its results file and returns the contract
    result dict (None when the binary crashed or timed out)."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    bdir = bdir or build_dir()
    out_dir = os.path.join(ROOT, results_dir)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}")
    cmd = [os.path.join(bdir, binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", stem + ".spans.jsonl"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              env=None if env is None else {**os.environ, **env})
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if proc.returncode != 0 or report is None:
        print(f"{workload}: benchmark binary exited {proc.returncode}", file=sys.stderr)
        return None
    failed_frac = report["failed"] / max(1, report["attempted"])
    print(f"  failed_frac = {failed_frac}")
    metrics = select_metrics(bench, layers, workload, trace, report["metrics"])
    env_block = dict(report["env"], nproc=len(os.sched_getaffinity(0)),
                     git_sha=git_sha())
    results = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "binary": binary, "env": env_block, "correct": report["correct"],
        "attempted": report["attempted"], "failed": report["failed"],
        "failed_frac": failed_frac, "failures": report["failures"],
        "metrics": metrics, "notes": report["notes"],
    }
    with open(stem + ".json", "w") as f:
        json.dump(results, f, indent=1)
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    layers = load_json(os.path.join(HERE, "layers.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(layers["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (KeyError, OSError, ValueError) as e:
        print(f"bad benchmark output: {e}", file=sys.stderr)
        return 1
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
