#!/usr/bin/env bash
# Tier-1 CI: build + full test suite in the default configuration, then
# again under ASan+UBSan, then the runtime (real-thread) tests under TSan,
# plus the static-analysis gate (colex-lint). Each configuration uses its
# own build tree so they never contaminate one another. Exits non-zero on
# the first failing step.
#
#   ./ci.sh             all configurations + smokes + lint (the full gate)
#   ./ci.sh --smoke     default build + full ctest + lint + the smokes and
#                       the sim scaling gate on the default build
#   ./ci.sh lint        just the static-analysis stage
#   ./ci.sh soak-smoke  just the soak gate on the default build
#   ./ci.sh coro-smoke  just the coroutine-runtime gate on the default build
#   ./ci.sh metrics-smoke  just the live-telemetry gate on the default build
#   ./ci.sh socket-smoke  just the socket-transport gate on the default build
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-all}"
case "$mode" in
  all|--all) mode=all ;;
  smoke|--smoke) mode=smoke ;;
  lint|--lint) mode=lint ;;
  soak-smoke|--soak-smoke) mode=soak-smoke ;;
  coro-smoke|--coro-smoke) mode=coro-smoke ;;
  metrics-smoke|--metrics-smoke) mode=metrics-smoke ;;
  socket-smoke|--socket-smoke) mode=socket-smoke ;;
  *)
    echo "usage: $0 [all|--smoke|lint|soak-smoke|coro-smoke|metrics-smoke|socket-smoke]" >&2
    exit 2
    ;;
esac

jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1" label="$2" test_filter="$3"
  shift 3
  echo "==> [$label] configure ($dir)"
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "==> [$label] build"
  cmake --build "$dir" -j "$jobs"
  echo "==> [$label] ctest $test_filter"
  if [ -n "$test_filter" ]; then
    (cd "$dir" && ctest --output-on-failure -j "$jobs" -R "$test_filter")
  else
    (cd "$dir" && ctest --output-on-failure -j "$jobs")
  fi
}

# Static analysis (DESIGN.md §8): the tree must scan clean (justified
# suppressions only) and the rules themselves must still catch every
# planted violation in the fixture corpus. clang-tidy rides along when the
# binary exists; the in-repo linter is the gate either way.
run_lint() {
  echo "==> [lint] configure + build colex-lint"
  cmake -B build -S . -DCOLEX_WERROR=ON >/dev/null
  cmake --build build -j "$jobs" --target colex-lint
  # Wall-clock guard: the interprocedural passes (symbol table, call graph,
  # taint fixpoint) must stay cheap enough to gate every push. 60s is ~100x
  # headroom today; tripping it means a fixpoint regressed, not a slow box.
  local lint_t0 lint_t1
  lint_t0="$(date +%s)"
  echo "==> [lint] tree scan: src tools bench"
  ./build/tools/colex-lint --jobs "$jobs" src tools bench
  echo "==> [lint] rule self-test: tests/lint_fixtures"
  ./build/tools/colex-lint --self-test tests/lint_fixtures
  lint_t1="$(date +%s)"
  if [ "$((lint_t1 - lint_t0))" -gt 60 ]; then
    echo "==> [lint] FAIL: scan + self-test took $((lint_t1 - lint_t0))s (budget 60s)"
    exit 1
  fi
  echo "==> [lint] scan + self-test in $((lint_t1 - lint_t0))s (budget 60s)"
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [lint] clang-tidy (via build/compile_commands.json)"
    find src -name '*.cpp' -print0 \
      | xargs -0 clang-tidy -p build --quiet
  else
    echo "==> [lint] clang-tidy not installed; skipped (colex-lint is the gate)"
  fi
}

# Soak smoke (DESIGN.md §9): a short sharded multi-ring soak under steady
# churn must finish with the service-level gate intact — zero diverged,
# zero safety-violated, zero abandoned elections — verified on the --json
# summary, not just the exit code, so a reporting regression also fails.
run_soak_smoke() {
  local dir="$1" label="$2"
  echo "==> [$label] soak smoke: colex-soak (256 rings, >=200 elections)"
  cmake --build "$dir" -j "$jobs" --target colex-soak >/dev/null
  local summary
  summary="$("$dir"/tools/colex-soak --duration 2 --rings 256 \
      --min-elections 200 --seed 7 --churn steady --json)"
  echo "    $summary"
  echo "$summary" | grep -q '"diverged":0,'
  echo "$summary" | grep -q '"safety_violated":0,'
  echo "$summary" | grep -q '"abandoned":0,'
  echo "$summary" | grep -q '"ok":true'
}

# Coroutine-runtime smoke: bench_e16_coro --smoke runs Algorithm 2 on the
# coroutine executor with 1 and with 2 workers on two shapes, a 10^4-node
# ring with IDs in ring order and perfbench's coro-ring shape (n=4000,
# shuffled IDs), next to a ThreadRing capacity sweep, and writes
# BENCH_E16.json; the gates checked on the artifact are >=2x ThreadRing's
# max ring size AND >=2x its nodes/sec, 2 workers no slower than 1 on
# both shapes (gate_workers_ok), with every election landing the exact
# paper pulse count.
run_coro_smoke() {
  local dir="$1" label="$2"
  echo "==> [$label] coro smoke: bench_e16_coro --smoke"
  cmake --build "$dir" -j "$jobs" --target bench_e16_coro >/dev/null
  (cd "$dir" && ./bench/bench_e16_coro --smoke)
  grep -q '"gate_speed_ok": true' "$dir/BENCH_E16.json"
  grep -q '"gate_capacity_ok": true' "$dir/BENCH_E16.json"
  grep -q '"gate_workers_ok": true' "$dir/BENCH_E16.json"
  grep -q '"gate_ok": true' "$dir/BENCH_E16.json"
}

# Live-telemetry smoke: serve /metrics mid-soak, scrape it with the in-repo
# client (colex-top --raw; no curl dependency), and require (a) the headline
# election counter plus every per-phase pulse series on the wire, and (b)
# the scrape's `# TYPE` family set to equal the end-of-run snapshot rendered
# by `colex-inspect metrics` — one encoder, two views, directly diffable.
run_metrics_smoke() {
  local dir="$1" label="$2"
  echo "==> [$label] metrics smoke: colex-soak --serve + colex-top scrape"
  cmake --build "$dir" -j "$jobs" \
      --target colex-soak colex-top colex-inspect >/dev/null
  local work
  work="$(mktemp -d)"
  "$dir"/tools/colex-soak --duration 4 --rings 256 --shards 2 --seed 11 \
      --churn steady --serve 0 --snapshot "$work/snap.jsonl" --json \
      > "$work/summary.json" 2> "$work/stderr.log" &
  local soak_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^serving metrics on 127\.0\.0\.1://p' \
        "$work/stderr.log" | head -1)"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "    soak never announced a metrics port" >&2
    kill "$soak_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 1  # let elections land on every shard before scraping
  "$dir"/tools/colex-top --port "$port" --once --raw > "$work/scrape.txt"
  grep -q '^colex_elections_total ' "$work/scrape.txt"
  for phase in probe elected initiated_wait orientation_flip done adversary; do
    grep -q "^colex_pulses_total{phase=\"$phase\"} " "$work/scrape.txt"
  done
  wait "$soak_pid"
  grep -q '"ok":true' "$work/summary.json"
  "$dir"/tools/colex-inspect metrics "$work/snap.jsonl" > "$work/final.txt"
  diff <(grep '^# TYPE' "$work/scrape.txt" | sort) \
       <(grep '^# TYPE' "$work/final.txt" | sort)
  echo "    live scrape and recorded rendering agree on" \
       "$(grep -c '^# TYPE' "$work/final.txt") metric families"
  rm -rf "$work"
}

# Socket-transport smoke: the cross-substrate conformance battery and the
# multi-process election (real forked colex-ring node processes) must pass,
# then bench_e18_net --smoke reruns socket-vs-coro head to head, splits the
# socket-ring shape's elections into stages, and writes BENCH_E18.json; the
# gates checked on the artifact are exact paper pulse counts everywhere
# (including the merged multi-process Theorem 1 total), wire-level
# conservation (sent == consumed == bytes each way), and the four stages
# summing to each election's wall time within 5%.
run_socket_smoke() {
  local dir="$1" label="$2"
  echo "==> [$label] socket smoke: conformance + multi-process + E18 gates"
  cmake --build "$dir" -j "$jobs" \
      --target test_transport_conformance test_net_multiprocess \
      colex-ring bench_e18_net >/dev/null
  (cd "$dir" && ctest --output-on-failure \
      -R "test_transport_conformance|test_net_multiprocess")
  (cd "$dir" && ./bench/bench_e18_net --smoke)
  grep -q '"gate_multiproc_ok": true' "$dir/BENCH_E18.json"
  grep -q '"gate_wire_conserved": true' "$dir/BENCH_E18.json"
  grep -q '"gate_stages_ok": true' "$dir/BENCH_E18.json"
  grep -q '"gate_ok": true' "$dir/BENCH_E18.json"
}

# JSON artifact gate: every file must parse with python3's json module, an
# independent reader that rejects raw control bytes inside strings. Files
# ending in .jsonl are checked line by line, others as one document.
check_json() {
  python3 - "$@" <<'PY'
import json
import sys

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        if path.endswith(".jsonl"):
            for line in f:
                if line.strip():
                    json.loads(line)
        else:
            json.load(f)
    print("    valid JSON:", path)
PY
}

# Simulator scaling gate: a simulator step must not grow with the number of
# busy channels, so Algorithm 2's pulses/s at n=1024 must stay at least half
# its n=16 rate. Both runs share one host, so its speed cancels out of the
# ratio; bench_e10_micro computes it into BENCH_E10.json from the median of
# three repetitions, since the n=1024 rate swings with other load on the box.
run_sim_scaling_gate() {
  local dir="$1" label="$2"
  echo "==> [$label] sim scaling gate: BM_Alg2Election n=1024 vs n=16"
  cmake --build "$dir" -j "$jobs" --target bench_e10_micro >/dev/null
  (cd "$dir" && ./bench/bench_e10_micro --benchmark_repetitions=3 \
      --benchmark_filter='^BM_Alg2Election/(16|1024)$')
  grep -q '"gate_scaling_ok": true' "$dir/BENCH_E10.json"
}

if [ "$mode" = lint ]; then
  run_lint
  echo "==> lint green"
  exit 0
fi

if [ "$mode" = soak-smoke ]; then
  cmake -B build -S . -DCOLEX_WERROR=ON >/dev/null
  run_soak_smoke build default
  echo "==> soak smoke green"
  exit 0
fi

if [ "$mode" = coro-smoke ]; then
  cmake -B build -S . -DCOLEX_WERROR=ON >/dev/null
  run_coro_smoke build default
  echo "==> coro smoke green"
  exit 0
fi

if [ "$mode" = metrics-smoke ]; then
  cmake -B build -S . -DCOLEX_WERROR=ON >/dev/null
  run_metrics_smoke build default
  echo "==> metrics smoke green"
  exit 0
fi

if [ "$mode" = socket-smoke ]; then
  cmake -B build -S . -DCOLEX_WERROR=ON >/dev/null
  run_socket_smoke build default
  echo "==> socket smoke green"
  exit 0
fi

# 1. Default configuration: full tier-1 suite. -DCOLEX_WERROR=ON is the
#    CMake default; pinned here so a cached build tree can never drop it.
run_config build default "" -DCOLEX_WERROR=ON

# 2. Static analysis on the tree just built.
run_lint

# 3. Soak smoke on the default build (repeated under the sanitizers below).
run_soak_smoke build default

# 4. Coroutine-runtime smoke on the default build: the executor must beat
#    ThreadRing on both capacity and nodes/sec even in the CI-sized run.
run_coro_smoke build default

# 5. Live-telemetry smoke on the default build: /metrics must be scrapeable
#    mid-soak and agree family-for-family with the recorded rendering.
run_metrics_smoke build default

# 5b. Socket-transport smoke on the default build: conformance battery,
#     forked multi-process election, and the E18 exactness gates.
run_socket_smoke build default

# 5c. Simulator scaling gate on the default build: pulses/s must stay flat
#     in the ring size.
run_sim_scaling_gate build default

if [ "$mode" = smoke ]; then
  echo "==> smoke green (default build + ctest + lint + soak + coro" \
       "+ metrics + socket smoke + sim scaling gate)"
  exit 0
fi

# 6. ASan + UBSan: full suite (memory errors and UB anywhere), then the
#    soak smoke on the sanitized binaries.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
run_config build-asan asan+ubsan "" \
  -DCOLEX_ASAN=ON -DCOLEX_UBSAN=ON
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
run_soak_smoke build-asan asan+ubsan
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
run_socket_smoke build-asan asan+ubsan

# 7. TSan: the tests that exercise real threads (ThreadRing runtime,
#    automaton host, the threaded fault/chaos harness, the parallel
#    schedule explorer, the sharded soak driver, and the coroutine
#    executor's SPSC channels, Chase-Lev deques, and sleep/wake protocol
#    under multi-worker stealing — including the metrics layer's
#    per-subtree registry ownership, plus the socket transport's
#    node-thread/coordinator handoff and its single-process framing tests;
#    the fork()ing multi-process test stays out, TSan cannot follow forks),
#    then the soak smoke with real data races on the line.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
run_config build-tsan tsan \
  "test_runtime|test_runtime_faults|test_automaton_host|test_parallel_explore|test_obs_metrics|test_obs_export|test_obs_serve|test_svc_soak|test_coro_runtime|test_transport_conformance|test_net_framing" \
  -DCOLEX_TSAN=ON
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
run_soak_smoke build-tsan tsan

# 8. Bench smoke: the n=3 exhaustive sweep must finish, agree across both
#    exploration engines, and show the snapshot engine >= 2x over replay
#    (it writes BENCH_E12.json for the perf trail).
echo "==> [bench-smoke] bench_e12_exhaustive --smoke"
(cd build && ./bench/bench_e12_exhaustive --smoke)

# 9. Observability smoke: E1 exports an instrumented trace, and the
#    inspector must load it, audit conservation, and confirm the Theorem 1
#    pulse bound from the recorded stream alone. The trace, its Chrome
#    export and the tree's colex-lint --json report must be valid JSON.
echo "==> [obs-smoke] bench_e1_theorem1 --smoke + colex-inspect check"
(cd build && ./bench/bench_e1_theorem1 --smoke \
  && ./tools/colex-inspect check TRACE_E1.jsonl | tee /dev/stderr \
     | grep -q "theorem1-bound: OK" \
  && ./tools/colex-inspect chrome TRACE_E1.jsonl TRACE_E1.chrome.json \
  && ./tools/colex-inspect diff TRACE_E1.jsonl TRACE_E1.jsonl >/dev/null)
./build/tools/colex-lint --json src tools bench > build/LINT_TREE.json
check_json build/TRACE_E1.jsonl build/TRACE_E1.chrome.json build/LINT_TREE.json

# 10. Fuzz smoke (on the sanitized build, so every generated schedule and
#    fault plan also runs under ASan+UBSan): a fixed-seed clean+faulty
#    campaign must survive with no counterexample; the planted bound defect
#    must be found, shrink to a minimal repro that replays deterministically
#    (colex-fuzz --replay), and export a trace that still passes the REAL
#    Theorem 1 bound in colex-inspect. The committed repro file is the
#    regression gate: the pipeline must keep reproducing it byte-for-byte
#    semantics forever. The repro and the trace must be valid JSON.
echo "==> [fuzz-smoke] colex-fuzz campaigns + replay gates"
(cd build-asan \
  && ./tools/colex-fuzz run --seeds 120 --fault-fraction 0.3 --json \
  && if ./tools/colex-fuzz run --seeds 5 --algs alg2 --planted \
         --repro-out FUZZ_PLANTED.jsonl --trace-out FUZZ_PLANTED_TRACE.jsonl \
         > /dev/null; then
       echo "planted campaign unexpectedly passed"; exit 1
     fi \
  && ./tools/colex-fuzz --replay FUZZ_PLANTED.jsonl \
  && ./tools/colex-inspect check FUZZ_PLANTED_TRACE.jsonl | tee /dev/stderr \
     | grep -q "theorem1-bound: OK" \
  && ./tools/colex-fuzz --replay ../tests/data/planted_bound_repro.jsonl)
check_json build-asan/FUZZ_PLANTED.jsonl build-asan/FUZZ_PLANTED_TRACE.jsonl

echo "==> all configurations green"
