// E16 — coroutine event-loop runtime: million-node rings in one process.
// ThreadRing's one-OS-thread-per-node design caps real-concurrency
// elections at a few thousand nodes; the coroutine executor (src/coro)
// runs each node as a coroutine over lock-free SPSC pulse channels and a
// work-stealing scheduler, lifting the same blocking-style transcriptions
// to rings of 10^5–10^6 nodes. Measured here, head to head:
//
//  * ThreadRing capacity sweep — Algorithm 1 with IDmax=2 (exactly 2n
//    pulses), ring size doubling until thread creation fails or a run
//    blows the per-size time budget. That last completed size is the
//    baseline's max practical ring.
//  * Coroutine sweep — the identical workload at n = 10^4, 10^5, 10^6.
//  * Worker sweeps — Algorithm 2 once per worker count W: W ∈ {1, 2}
//    (smoke) or W = 1..the usable CPUs, median of 3 (full), on two shapes:
//    n = 10^4 with IDs 1..n in ring order, and perfbench's coro-ring shape,
//    n = 4000 with IDs a seeded shuffle of 1..4000. Each W records its
//    seconds (with min/max in full mode), pulses/s and the executor's
//    resumes, wakeups, deferred pulses, yields, steals and worker parks.
//  * The acceptance election (full mode) — Algorithm 2 at n = 10^5 with
//    --workers: n(2·IDmax+1) ≈ 2·10^10 pulses, completed in one process
//    with the exact Theorem 1 count.
//
// Gates (all recorded in BENCH_E16.json): the coroutine runtime reaches
// ≥10× ThreadRing's max ring size (smoke: ≥2×), at ≥2× its nodes/sec;
// every Algorithm 2 election completes with the exact pulse count and the
// max-ID leader; and on the ring-order shape pulses/s does not decrease
// as W grows (smoke: W=2 is not slower than W=1), while on the shuffled
// shape W=2 is not slower than W=1 (higher W are recorded, not gated: at
// n = 4000 the fourth worker can read below the third). With fewer than 2
// usable CPUs the worker gate is recorded as skipped. Peak RSS is sampled
// (getrusage ru_maxrss) after each phase; ThreadRing runs first so its
// peak is unpolluted, and the coro phases report the running process
// maximum (equal to their own peak whenever they are the high-water mark).
//
// Flags: --smoke (CI-sized: sweeps capped, no 10^5 election), --workers N
// (executor workers for the Algorithm 1 sweep and the 10^5 election,
// default 1), --json <dir> (redirect BENCH_E16.json).
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "coro/run.hpp"
#include "runtime/blocking_algs.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

/// Process peak RSS in MiB (Linux ru_maxrss is KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// IDmax=2 ring for the capacity sweeps: Corollary 13 gives exactly 2n
/// pulses, so the work per node is constant and nodes/sec is comparable
/// across sizes and runtimes.
std::vector<std::uint64_t> sweep_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n, 1);
  ids[n / 2] = 2;
  return ids;
}

struct SweepRow {
  std::size_t n = 0;
  bool completed = false;
  bool exact = false;  ///< pulses == 2n and exactly one leader
  std::uint64_t pulses = 0;
  double seconds = 0.0;
  double nodes_per_sec = 0.0;
  double pulses_per_sec = 0.0;
};

SweepRow row_from(std::size_t n, bool completed, std::size_t leaders,
                  std::uint64_t pulses, double seconds) {
  SweepRow row;
  row.n = n;
  row.completed = completed;
  row.pulses = pulses;
  row.seconds = seconds;
  row.exact = completed && leaders == 1 && pulses == 2 * n;
  if (completed && seconds > 0.0) {
    row.nodes_per_sec = static_cast<double>(n) / seconds;
    row.pulses_per_sec = static_cast<double>(pulses) / seconds;
  }
  return row;
}

/// True iff the process can hold `count` simultaneous parked threads.
/// ThreadRing spawns one thread per node and cannot survive a failed
/// std::thread constructor (joinable threads unwinding -> std::terminate),
/// so the capacity wall — vm.max_map_count allows ~32k thread stacks here —
/// must be probed where the failure is a catchable exception. The probe
/// threads are all alive at once, then released and joined, so reaching
/// `count` proves the real run's spawn loop will too.
bool can_spawn(std::size_t count) {
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::thread> pool;
  pool.reserve(count);
  bool ok = true;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      pool.emplace_back([&m, &cv, &release] {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&release] { return release; });
      });
    }
  } catch (const std::exception& e) {
    ok = false;
    std::cout << "threadring capacity probe failed at thread " << pool.size()
              << " of " << count << ": " << e.what() << "\n";
  }
  {
    const std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();
  return ok;
}

SweepRow threadring_sweep_run(std::size_t n, std::uint64_t timeout_ms) {
  // +4: the monitor thread plus slack for the runtime's own helpers.
  if (!can_spawn(n + 4)) {
    // Thread creation failing IS the capacity measurement.
    return row_from(n, false, 0, 0, 0.0);
  }
  const auto ids = sweep_ids(n);
  bench::WallTimer timer;
  const rt::ThreadRunResult r =
      rt::run_on_threads(ids, {}, rt::ThreadAlg::alg1, timeout_ms);
  return row_from(n, r.completed, r.leader_count, r.pulses, timer.seconds());
}

SweepRow coro_sweep_run(std::size_t n, std::size_t workers,
                        std::uint64_t timeout_ms) {
  const auto ids = sweep_ids(n);
  coro::CoroRunOptions options;
  options.workers = workers;
  options.timeout_ms = timeout_ms;
  bench::WallTimer timer;
  const coro::CoroRunResult r =
      coro::run_on_coro(ids, {}, rt::ThreadAlg::alg1, options);
  return row_from(n, r.completed, r.leader_count, r.pulses, timer.seconds());
}

/// One Algorithm 2 election. `exact` holds when it lands Theorem 1's
/// n(2·IDmax+1) pulses with the max-ID node as the only leader.
struct Alg2Run {
  std::size_t n = 0;
  std::size_t workers = 0;
  double seconds = 0.0;
  bool exact = false;
  std::uint64_t pulses = 0;
  coro::ExecStats stats;

  double pulses_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(pulses) / seconds : 0.0;
  }
};

Alg2Run alg2_run(const std::vector<std::uint64_t>& ids, std::size_t workers) {
  coro::CoroRunOptions options;
  options.workers = workers;
  options.timeout_ms = 3'600'000;
  bench::WallTimer timer;
  const coro::CoroRunResult r =
      coro::run_on_coro(ids, {}, rt::ThreadAlg::alg2, options);
  Alg2Run run;
  run.n = ids.size();
  run.workers = workers;
  run.seconds = timer.seconds();
  run.pulses = r.pulses;
  run.stats = r.stats;
  const auto max_it = std::max_element(ids.begin(), ids.end());
  run.exact = r.completed && r.leader_count == 1 &&
              r.leader == static_cast<std::size_t>(max_it - ids.begin()) &&
              r.pulses == rt::pulse_bound(rt::ThreadAlg::alg2, run.n, *max_it);
  return run;
}

/// One worker count of a sweep: the median run by wall time, plus the
/// fastest and slowest run's seconds.
struct SweepPoint {
  Alg2Run median;
  double seconds_min = 0.0;
  double seconds_max = 0.0;
};

/// Runs Algorithm 2 on `ids` `repeats` times per worker count W = 1..
/// `max_workers`; `all_exact` drops to false on any inexact run.
std::vector<SweepPoint> worker_sweep(const std::vector<std::uint64_t>& ids,
                                     std::size_t max_workers,
                                     std::size_t repeats, bool& all_exact) {
  std::vector<SweepPoint> points;
  for (std::size_t w = 1; w <= max_workers; ++w) {
    std::vector<Alg2Run> runs;
    for (std::size_t k = 0; k < repeats; ++k) {
      runs.push_back(alg2_run(ids, w));
      all_exact = all_exact && runs.back().exact;
    }
    std::sort(runs.begin(), runs.end(),
              [](const Alg2Run& a, const Alg2Run& b) {
                return a.seconds < b.seconds;
              });
    points.push_back(SweepPoint{runs[runs.size() / 2], runs.front().seconds,
                                runs.back().seconds});
  }
  return points;
}

/// True iff pulses/s never falls from one worker count to the next among
/// the first `upto` points.
bool non_decreasing(const std::vector<SweepPoint>& points, std::size_t upto) {
  for (std::size_t i = 1; i < std::min(upto, points.size()); ++i) {
    if (points[i].median.pulses_per_sec() <
        points[i - 1].median.pulses_per_sec()) {
      return false;
    }
  }
  return true;
}

void print_sweep(const std::vector<SweepPoint>& points) {
  util::Table table({"W", "seconds", "Mpulses/s", "resumes", "wakeups",
                     "deferred", "yields", "steals", "parks", "exact"});
  for (const SweepPoint& point : points) {
    const Alg2Run& run = point.median;
    const coro::ExecStats& st = run.stats;
    table.add_row(
        {std::to_string(run.workers), util::Table::fixed(run.seconds, 3),
         util::Table::fixed(run.pulses_per_sec() / 1e6, 2),
         std::to_string(st.resumes), std::to_string(st.wakeups),
         std::to_string(st.deferred), std::to_string(st.yields),
         std::to_string(st.steals), std::to_string(st.parks),
         run.exact ? "yes" : "NO"});
  }
  table.print(std::cout);
}

bench::Json json_row(const char* runtime, const SweepRow& row) {
  bench::Json j = bench::Json::object();
  j.set("runtime", runtime)
      .set("n", static_cast<std::uint64_t>(row.n))
      .set("completed", row.completed)
      .set("exact", row.exact)
      .set("pulses", row.pulses)
      .set("seconds", row.seconds)
      .set("nodes_per_sec", row.nodes_per_sec)
      .set("pulses_per_sec", row.pulses_per_sec);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t workers = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoll(argv[++i]));
    }
  }

  bench::banner(
      "E16 — coroutine runtime: million-node rings in one process",
      "each ring node as a coroutine over lock-free SPSC pulse channels "
      "runs the same blocking-style transcriptions as ThreadRing at 10x+ "
      "the ring size with exact Theorem 1 / Corollary 13 pulse counts");

  bench::JsonReport report("E16", "coroutine executor vs ThreadRing");
  bench::apply_json_flag(report, argc, argv);
  bench::WallTimer total;

  util::Table table({"runtime", "n", "pulses", "seconds", "nodes/s",
                     "Mpulses/s", "exact"});
  auto add_table_row = [&table](const char* runtime, const SweepRow& row) {
    table.add_row({runtime, std::to_string(row.n), std::to_string(row.pulses),
                   util::Table::fixed(row.seconds, 3),
                   util::Table::fixed(row.nodes_per_sec, 0),
                   util::Table::fixed(row.pulses_per_sec / 1e6, 2),
                   row.exact ? "yes" : "NO"});
  };

  // --- Phase 1: ThreadRing capacity sweep (runs first so its peak RSS is
  // unpolluted by the million-node coroutine arena). --------------------
  const std::size_t tr_cap = smoke ? 4096 : 32768;
  const double tr_budget_seconds = smoke ? 5.0 : 30.0;
  std::vector<SweepRow> tr_rows;
  SweepRow tr_best;
  for (std::size_t n = 1024; n <= tr_cap; n *= 2) {
    const SweepRow row = threadring_sweep_run(n, /*timeout_ms=*/120'000);
    add_table_row("threadring", row);
    tr_rows.push_back(row);
    if (!row.exact) break;
    tr_best = row;
    if (row.seconds > tr_budget_seconds) break;  // next doubling won't fit
  }
  const double tr_peak_rss = peak_rss_mb();

  // --- Phase 2: coroutine sweep over the same workload. ----------------
  const std::vector<std::size_t> coro_sizes =
      smoke ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  std::vector<SweepRow> coro_rows;
  SweepRow coro_best;
  for (const std::size_t n : coro_sizes) {
    const SweepRow row = coro_sweep_run(n, workers, /*timeout_ms=*/600'000);
    add_table_row("coro", row);
    coro_rows.push_back(row);
    if (row.exact) coro_best = row;
  }
  const double coro_peak_rss = peak_rss_mb();

  // --- Phase 3: worker sweeps — Algorithm 2 per worker count, the median
  // of `repeats` runs by wall time, on IDs 1..10^4 in ring order and on
  // coro-ring's shape (a seeded shuffle of 1..4000). ---------------------
  constexpr std::size_t kSweepN = 10'000;
  constexpr std::size_t kShuffledN = 4'000;
  constexpr std::uint64_t kShuffleSeed = 1;
  const std::size_t cpus = util::usable_cpus();
  const std::size_t max_workers = smoke ? 2 : cpus;
  const std::size_t repeats = smoke ? 1 : 3;
  bool alg2_ok = true;
  const std::vector<SweepPoint> ring_sweep =
      worker_sweep(util::dense_ids(kSweepN), max_workers, repeats, alg2_ok);
  const std::vector<SweepPoint> shuffled_sweep = worker_sweep(
      util::shuffled(util::dense_ids(kShuffledN), kShuffleSeed), max_workers,
      repeats, alg2_ok);
  // More workers must never lower the ring-order pulse rate, and a second
  // worker must not lower the shuffled one. One usable CPU cannot tell: the
  // workers would time-slice a single core.
  const bool workers_skipped = cpus < 2;
  const bool ring_workers_ok = non_decreasing(ring_sweep, ring_sweep.size());
  const bool shuffled_workers_ok = non_decreasing(shuffled_sweep, 2);
  const bool workers_ok =
      (ring_workers_ok && shuffled_workers_ok) || workers_skipped;

  // --- Phase 4 (full mode): the acceptance election — Algorithm 2 at
  // n = 10^5, exactly n(2·IDmax+1) pulses end to end in one process. ----
  Alg2Run alg2;
  if (!smoke) {
    alg2 = alg2_run(util::dense_ids(100'000), workers);
    alg2_ok = alg2_ok && alg2.exact;
    table.add_row({"coro-alg2", std::to_string(alg2.n),
                   std::to_string(alg2.pulses),
                   util::Table::fixed(alg2.seconds, 3),
                   util::Table::fixed(
                       static_cast<double>(alg2.n) / alg2.seconds, 0),
                   util::Table::fixed(alg2.pulses_per_sec() / 1e6, 2),
                   alg2.exact ? "yes" : "NO"});
  }
  const double final_peak_rss = peak_rss_mb();
  table.print(std::cout);
  const std::string per_w =
      (repeats > 1 ? "median of " + std::to_string(repeats) + " runs"
                   : std::string("one run")) +
      " per W (" + std::to_string(cpus) + " usable CPUs)";
  std::cout << "\nAlgorithm 2 worker sweep, n=" << kSweepN
            << ", IDs in ring order, " << per_w << ":\n";
  print_sweep(ring_sweep);
  std::cout << "\nAlgorithm 2 worker sweep, n=" << kShuffledN
            << ", shuffled IDs (seed " << kShuffleSeed << "), " << per_w
            << ":\n";
  print_sweep(shuffled_sweep);

  // --- Gates. ----------------------------------------------------------
  const double capacity_factor =
      tr_best.n > 0 ? static_cast<double>(coro_best.n) /
                          static_cast<double>(tr_best.n)
                    : 0.0;
  const double speed_factor =
      tr_best.nodes_per_sec > 0.0
          ? coro_best.nodes_per_sec / tr_best.nodes_per_sec
          : 0.0;
  const double required_capacity = smoke ? 2.0 : 10.0;
  const bool capacity_ok = capacity_factor >= required_capacity;
  const bool speed_ok = speed_factor >= 2.0;
  bool sweeps_exact = coro_best.exact && tr_best.exact;
  for (const SweepRow& row : coro_rows) sweeps_exact = sweeps_exact && row.exact;

  std::cout << "\nthreadring max practical ring: " << tr_best.n << " nodes ("
            << util::Table::fixed(tr_best.nodes_per_sec, 0)
            << " nodes/s, peak RSS " << util::Table::fixed(tr_peak_rss, 1)
            << " MiB)\n"
            << "coro max ring: " << coro_best.n << " nodes ("
            << util::Table::fixed(coro_best.nodes_per_sec, 0)
            << " nodes/s, process peak RSS "
            << util::Table::fixed(coro_peak_rss, 1) << " MiB)\n"
            << "capacity factor: " << util::Table::fixed(capacity_factor, 1)
            << "x (gate >= " << required_capacity << "x), nodes/sec factor: "
            << util::Table::fixed(speed_factor, 1) << "x (gate >= 2x)\n"
            << "alg2 elections: " << (alg2_ok ? "all exact" : "FAILED")
            << "\n"
            << "worker gate (ring order: pulses/s non-decreasing in W; "
               "shuffled: W=2 not below W=1): "
            << (workers_skipped
                    ? std::string("skipped, fewer than 2 usable CPUs")
                    : std::string(ring_workers_ok ? "ok" : "FAILED") + ", " +
                          (shuffled_workers_ok ? "ok" : "FAILED"))
            << "\n";

  for (const SweepRow& row : tr_rows) report.add_result(json_row("threadring", row));
  for (const SweepRow& row : coro_rows) report.add_result(json_row("coro", row));
  auto alg2_json = [](const Alg2Run& run, const char* ids) {
    bench::Json j = bench::Json::object();
    j.set("runtime", "coro")
        .set("algorithm", "alg2")
        .set("n", static_cast<std::uint64_t>(run.n))
        .set("ids", ids)
        .set("workers", static_cast<std::uint64_t>(run.workers))
        .set("exact", run.exact)
        .set("pulses", run.pulses)
        .set("seconds", run.seconds)
        .set("pulses_per_sec", run.pulses_per_sec())
        .set("resumes", run.stats.resumes)
        .set("wakeups", run.stats.wakeups)
        .set("deferred", run.stats.deferred)
        .set("yields", run.stats.yields)
        .set("steals", run.stats.steals)
        .set("parks", run.stats.parks);
    return j;
  };
  if (!smoke) report.add_result(alg2_json(alg2, "ring-order"));
  auto sweep_json = [&](const std::vector<SweepPoint>& points,
                        const char* ids) {
    bench::Json sweep = bench::Json::array();
    for (const SweepPoint& point : points) {
      bench::Json row = alg2_json(point.median, ids);
      row.set("repeats", static_cast<std::uint64_t>(repeats))
          .set("seconds_min", point.seconds_min)
          .set("seconds_max", point.seconds_max);
      sweep.push(std::move(row));
    }
    return sweep;
  };

  const bool ok =
      capacity_ok && speed_ok && sweeps_exact && alg2_ok && workers_ok;
  report.root()
      .set("smoke", smoke)
      .set("workers", static_cast<std::uint64_t>(workers))
      .set("threadring_max_n", static_cast<std::uint64_t>(tr_best.n))
      .set("threadring_nodes_per_sec", tr_best.nodes_per_sec)
      .set("threadring_peak_rss_mb", tr_peak_rss)
      .set("coro_max_n", static_cast<std::uint64_t>(coro_best.n))
      .set("coro_nodes_per_sec", coro_best.nodes_per_sec)
      .set("coro_peak_rss_mb", coro_peak_rss)
      .set("final_peak_rss_mb", final_peak_rss)
      .set("capacity_factor", capacity_factor)
      .set("required_capacity_factor", required_capacity)
      .set("nodes_per_sec_factor", speed_factor)
      .set("alg2_ok", alg2_ok)
      .set_json("worker_sweep", sweep_json(ring_sweep, "ring-order"))
      .set("shuffle_seed", kShuffleSeed)
      .set_json("worker_sweep_shuffled",
                sweep_json(shuffled_sweep, "shuffled"))
      .set("gate_capacity_ok", capacity_ok)
      .set("gate_speed_ok", speed_ok)
      .set("gate_workers_skipped", workers_skipped)
      .set("gate_workers_ok", workers_ok)
      .set("gate_ok", ok);
  report.finish(total.seconds());

  bench::verdict(
      ok,
      "the coroutine executor ran the same transcriptions at " +
          util::Table::fixed(capacity_factor, 1) +
          "x ThreadRing's max ring size and " +
          util::Table::fixed(speed_factor, 1) +
          "x its nodes/sec, every election landing the exact paper pulse "
          "count with a unique max-ID leader, and more workers never "
          "lowered the Algorithm 2 pulse rate");
  return ok ? 0 : 1;
}
