// The election benchmark: closed-loop elections on the simulator, the soak
// service, the coroutine executor and loopback sockets. Every election is
// checked against the paper's exact count, Theorem 1's n(2*IDmax+1) pulses,
// and a unique max-ID leader; a soak run must pass SoakReport::ok().
//
// Each workload reaches its layer only through the public facades:
// co::elect_oriented_terminating, svc::run_soak / svc::run_supervised /
// svc::ChurnEngine::spec, coro::run_on_coro and net::run_on_sockets.
//
// An untraced run (--trace 0) measures the end-to-end metrics. A traced run
// (--trace 1) reports the per-layer metrics, taken with the probes of
// trace.hpp attached, plus bench.trace_overhead. On sim-large-ring,
// coro-ring and socket-ring its elections alternate between untraced and
// traced, so host drift falls on both sides alike, and the overhead is the
// traced side's seconds per pulse over the untraced side's, minus 1. The
// soak runs untraced for the first half and traced for the second, and its
// overhead is the traced median latency over the untraced one, minus 1.
//
// Output: human-readable lines, then one line
//   PERFBENCH {"workload":..., "correct":..., "metrics":{...}, ...}
// which perfbench/run.py turns into a results file and the final line.
#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "co/election.hpp"
#include "coro/run.hpp"
#include "net/run.hpp"
#include "obs/flight.hpp"
#include "svc/soak.hpp"
#include "trace.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace colex::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// --- workload shapes --------------------------------------------------------

constexpr std::size_t kSimN = 1024;
constexpr std::size_t kCoroN = 4000;
constexpr std::size_t kCoroWorkers = 2;
constexpr std::size_t kSocketN = 3;
constexpr std::uint64_t kSocketIdMax = 2000;
constexpr std::uint64_t kSocketSmallIdMax = 9;
constexpr std::size_t kSoakRings = 1024;
constexpr std::size_t kSoakShards = 2;
/// An untraced soak run is this many back-to-back run_soak calls.
constexpr std::size_t kSoakChunks = 10;
/// Distinct seeded inputs one run cycles through.
constexpr std::size_t kInputPool = 4;
/// Set-up is repeated this often per run; setup_s is the median. A round
/// generates the run's inputs and warms up through the same facade. It does
/// not isolate the program's set-up at the workload's size: each facade
/// builds and runs in one call, so that set-up stays inside every election's
/// latency.
constexpr int kSetupRounds = 15;
/// Warm-up work inside each set-up round, a few milliseconds each: ring
/// sizes of the sim and coro warm-up elections, IDmax of the socket one, and
/// the soak's supervised elections.
constexpr std::size_t kSimWarmupN = 128;
constexpr std::size_t kCoroWarmupN = 256;
constexpr std::uint64_t kSocketWarmupIdMax = 50;
constexpr std::size_t kSoakWarmupElections = 256;
constexpr std::uint64_t kTimeoutMs = 60'000;
/// A traced socket election's four stage times must sum to its wall time
/// within this share.
constexpr double kStageSumTolerance = 0.05;

/// Tail percentile of each per-election workload (see set_end_to_end): a
/// 25 s run holds 3 to 5 sim, 20 to 25 coro and over 100 socket elections.
constexpr double kSimTailQ = 1.0;
constexpr double kCoroTailQ = 1.0;
constexpr double kSocketTailQ = 0.9;
/// An untraced socket run is this many back-to-back closed loops. Loopback
/// latency comes in host episodes of a few seconds that can slow more than
/// a tenth of a run, which moved a whole-run p90 by up to 3x.
constexpr std::size_t kSocketChunks = 5;

/// Independent input streams, all derived from --seed.
enum Stream : std::uint64_t { kIds = 1, kSoak = 2, kWarmup = 3 };

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index = 0) {
  util::SplitMix64 mix(seed);
  const std::uint64_t base = mix.next() ^ (stream * 0x9E3779B97F4A7C15ULL);
  return util::SplitMix64(base + index).next();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return util::percentile_sorted(v, 0.5);
}

/// VmHWM, the peak resident set of this process image. Not ru_maxrss: that
/// keeps the peak of the parent that forked us from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0.0;
}

// --- report -----------------------------------------------------------------

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for diagnosis
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void fail(const std::string& why, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 8) failures.push_back(why);
  }
  void set(const std::string& name, double value) {
    metrics.emplace_back(name, std::isfinite(value) ? value : 0.0);
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// One election as the closed loop saw it.
struct Sample {
  double ms = 0.0;
  std::uint64_t pulses = 0;
  std::string failure;  ///< empty iff the election verified
};

struct Loop {
  std::vector<double> ms;
  std::uint64_t verified = 0;
  std::uint64_t verified_pulses = 0;
  double wall_s = 0.0;
};

/// A closed loop with one caller: the next election is issued only after the
/// previous one returned, until the next would likely end past `seconds`.
/// At least `min_elections` elections run.
template <typename Elect>
Loop closed_loop(double seconds, Report& report, Elect&& elect,
                 std::size_t min_elections = 1) {
  Loop loop;
  const auto t0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const Sample s = elect(k);
    ++report.attempted;
    loop.ms.push_back(s.ms);
    if (s.failure.empty()) {
      ++loop.verified;
      loop.verified_pulses += s.pulses;
    } else {
      report.fail("election " + std::to_string(k) + ": " + s.failure);
    }
    if (k + 1 >= min_elections &&
        seconds_since(t0) + median(loop.ms) / 1e3 > seconds) {
      break;
    }
  }
  loop.wall_s = seconds_since(t0);
  return loop;
}

/// The closed loop of a traced run: even elections run `plain`, odd ones
/// `traced`, at least one of each, and each side counts its own elections
/// so both cycle through the same inputs. Sets bench.trace_overhead from the
/// seconds per pulse of each side, summed over its verified elections.
template <typename Plain, typename Traced>
void alternating_loop(double seconds, Report& report, Plain&& plain,
                      Traced&& traced) {
  double side_s[2] = {0.0, 0.0};
  double side_pulses[2] = {0.0, 0.0};
  std::uint64_t side_elections[2] = {0, 0};
  closed_loop(
      seconds, report,
      [&](std::size_t k) {
        const std::size_t side = k % 2;
        const Sample s = side == 0 ? plain(k / 2) : traced(k / 2);
        if (s.failure.empty()) {
          side_s[side] += s.ms / 1e3;
          side_pulses[side] += static_cast<double>(s.pulses);
          ++side_elections[side];
        }
        return s;
      },
      2);
  report.set("bench.trace_overhead",
             ratio(side_s[1] * side_pulses[0], side_s[0] * side_pulses[1]) -
                 1.0);
  report.note("trace_overhead_elections",
              std::to_string(side_elections[0]) + " untraced, " +
                  std::to_string(side_elections[1]) + " traced");
}

/// Each metric is taken per closed loop in `chunks` and reported as the
/// median over them, so a host episode that slows a minority of the chunks
/// does not move it.
///
/// `tail_q` is fixed per workload: the highest of p90/p99/... that leaves at
/// least 10 samples beyond it over the run at the workload's usual election
/// rate, or 1 (the maximum) when even p90 would not. It must not follow the
/// sample count of a run, or a slow run would switch from p90 to the maximum.
void set_end_to_end(Report& report, const std::vector<Loop>& chunks,
                    double setup_s, double tail_q) {
  std::vector<double> rate, p50, tail, pulse_rate;
  std::size_t samples = 0;
  for (const Loop& loop : chunks) {
    std::vector<double> sorted = loop.ms;
    std::sort(sorted.begin(), sorted.end());
    rate.push_back(static_cast<double>(loop.verified) / loop.wall_s);
    p50.push_back(util::percentile_sorted(sorted, 0.5));
    tail.push_back(util::percentile_sorted(sorted, tail_q));
    pulse_rate.push_back(static_cast<double>(loop.verified_pulses) /
                         loop.wall_s);
    samples += sorted.size();
  }
  report.set("setup_s", setup_s);
  report.set("elections_per_s", median(rate));
  report.set("election_ms_p50", median(p50));
  report.set("election_ms_tail", median(tail));
  report.set("pulses_per_s", median(pulse_rate));
  report.set("peak_rss_mb", peak_rss_mb());
  std::string percentile =
      tail_q < 1.0 ? "p" + std::to_string(std::lround(tail_q * 100)) : "max";
  if (chunks.size() > 1) {
    percentile +=
        " (median over " + std::to_string(chunks.size()) + " chunks)";
  }
  report.note("election_ms_tail_percentile", percentile);
  report.note("latency_samples", std::to_string(samples));
}

/// Runs `round` kSetupRounds times and returns the median wall seconds.
template <typename Round>
double timed_setup(Round&& round) {
  std::vector<double> s;
  for (int i = 0; i < kSetupRounds; ++i) {
    const auto t0 = Clock::now();
    round();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// Theorem 1's exact count and a unique max-ID leader.
std::string check_election(const std::vector<std::uint64_t>& ids,
                           bool completed, std::uint64_t pulses,
                           std::size_t leader_count,
                           std::optional<sim::NodeId> leader) {
  const std::uint64_t id_max = *std::max_element(ids.begin(), ids.end());
  const std::uint64_t want = co::theorem1_pulses(ids.size(), id_max);
  if (!completed) return "did not complete";
  if (pulses != want) {
    return "pulses " + std::to_string(pulses) + " != n(2*IDmax+1) = " +
           std::to_string(want);
  }
  if (leader_count != 1 || !leader) {
    return std::to_string(leader_count) + " leaders";
  }
  if (ids[*leader] != id_max) return "the leader is not the max-ID node";
  return "";
}

std::vector<std::vector<std::uint64_t>> shuffled_pool(std::size_t n,
                                                      std::uint64_t seed) {
  std::vector<std::vector<std::uint64_t>> pool;
  for (std::size_t i = 0; i < kInputPool; ++i) {
    pool.push_back(util::shuffled(util::dense_ids(n), derive(seed, kIds, i)));
  }
  return pool;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;  ///< traced run: where to write the spans
};

// --- sim-large-ring ---------------------------------------------------------

/// The workload's adversary: global-FIFO delivery, passed through `wrap`.
struct SimAdversary {
  explicit SimAdversary(const SchedulerWrap& wrap)
      : wrapped(wrap ? wrap(fifo) : nullptr) {}
  sim::Scheduler& get() { return wrapped ? *wrapped : fifo; }

  sim::GlobalFifoScheduler fifo;
  std::unique_ptr<sim::Scheduler> wrapped;
};

Sample elect_sim(const std::vector<std::uint64_t>& ids,
                 sim::Scheduler& scheduler, const sim::RunOptions& opts = {}) {
  const auto t0 = Clock::now();
  const co::ElectionResult r =
      co::elect_oriented_terminating(ids, scheduler, opts);
  Sample s;
  s.ms = seconds_since(t0) * 1e3;
  s.pulses = r.pulses;
  s.failure = check_election(
      ids, r.quiescent && r.all_terminated && r.valid_election(), r.pulses,
      r.leader_count, r.leader);
  return s;
}

void run_sim_large_ring(const Args& args, const SchedulerWrap& wrap,
                        SpanLog& log, Report& report) {
  std::vector<std::vector<std::uint64_t>> pool;
  const double setup_s = timed_setup([&] {
    pool = shuffled_pool(kSimN, args.seed);
    const auto warm = util::shuffled(util::dense_ids(kSimWarmupN),
                                     derive(args.seed, kWarmup));
    SimAdversary adversary(wrap);
    const Sample s = elect_sim(warm, adversary.get());
    if (!s.failure.empty()) report.fail("warm-up: " + s.failure);
  });
  auto untraced = [&](std::size_t k) {
    SimAdversary adversary(wrap);
    return elect_sim(pool[k % pool.size()], adversary.get());
  };
  if (!args.trace) {
    set_end_to_end(report, {closed_loop(args.seconds, report, untraced)},
                   setup_s, kSimTailQ);
    return;
  }
  std::uint64_t picks = 0, views = 0, pick_ns = 0, react_ns = 0, events = 0,
                window_ns = 0, elections = 0;
  alternating_loop(args.seconds, report, untraced, [&](std::size_t k) {
    ++elections;
    SimAdversary adversary(wrap);
    TimedScheduler timed(adversary.get());
    std::uint64_t delivered_at = 0, last_event = 0, react = 0, evs = 0;
    sim::RunOptions opts;
    opts.on_deliver = [&](sim::NodeId, sim::Port, sim::Direction) {
      delivered_at = now_ns();
    };
    opts.on_event = [&](sim::PulseNetwork&) {
      last_event = now_ns();
      if (delivered_at != 0) react += last_event - delivered_at;
      delivered_at = 0;
      ++evs;
    };
    const std::uint64_t t0 = now_ns();
    const Sample s = elect_sim(pool[k % pool.size()], timed, opts);
    const std::int64_t root = log.add("election", t0, now_ns(), -1, k);
    log.add("sim.steps", timed.first_pick_ns(), last_event, root, k);
    log.add_total("sim.pick", timed.picks(), timed.pick_ns());
    log.add_total("co.react", timed.picks(), react);
    picks += timed.picks();
    views += timed.views();
    pick_ns += timed.pick_ns();
    react_ns += react;
    events += evs;
    window_ns += last_event - timed.first_pick_ns();
    return s;
  });
  const auto p = static_cast<double>(picks);
  report.set("sim.pick_ns", ratio(static_cast<double>(pick_ns), p));
  report.set("sim.views_per_pick", ratio(static_cast<double>(views), p));
  report.set("sim.step_other_ns",
             ratio(static_cast<double>(window_ns) -
                       static_cast<double>(pick_ns) -
                       static_cast<double>(react_ns),
                   p));
  report.set("sim.events_per_election",
             ratio(static_cast<double>(events),
                   static_cast<double>(elections)));
  report.set("co.react_ns", ratio(static_cast<double>(react_ns), p));
}

// --- soak-steady ------------------------------------------------------------

svc::SoakOptions soak_options(const Args& args, double seconds) {
  svc::SoakOptions o;
  o.duration_seconds = seconds;
  o.rings = kSoakRings;
  o.shards = kSoakShards;
  o.seed = derive(args.seed, kSoak);
  o.churn = svc::ChurnProfile::preset(svc::ChurnPreset::steady);
  return o;
}

std::uint64_t counter(svc::SoakReport& r, const char* name) {
  return r.metrics.counter(name).value();
}

/// Runs the soak and folds its outcome into `report`; returns the report.
svc::SoakReport soak(const svc::SoakOptions& o, Report& report) {
  svc::SoakReport r = svc::run_soak(o);
  report.attempted += r.started;
  if (r.completed < r.started) {
    report.fail(r.violations.empty() ? "elections not completed"
                                     : r.violations.front(),
                r.started - r.completed);
  } else if (!r.ok()) {
    report.fail("SoakReport::ok() is false");
  }
  return r;
}

void run_soak_steady(const Args& args, SpanLog& log, Report& report) {
  const svc::SoakOptions options = soak_options(args, args.seconds);
  const double setup_s = timed_setup([&] {
    // What run_soak does per slot before its loop, plus a few supervised
    // elections to warm the allocator and the code paths.
    std::vector<svc::ChurnEngine> engines;
    engines.reserve(options.rings);
    for (std::size_t slot = 0; slot < options.rings; ++slot) {
      engines.emplace_back(options.seed, slot, options.churn);
      engines.back().spec(0, 0, options.policy.clean_after_attempts);
    }
    for (std::size_t slot = 0; slot < kSoakWarmupElections; ++slot) {
      if (!svc::run_supervised(engines[slot], 0, options.policy).completed) {
        report.fail("warm-up election of slot " + std::to_string(slot));
      }
    }
  });
  if (!args.trace) {
    // Back-to-back soaks with fresh soak seeds; each metric is the median
    // over the chunks, so a short machine hiccup moves one chunk only.
    std::vector<double> rate, p50, p99, pulse_rate;
    std::uint64_t samples = 0;
    for (std::size_t c = 0; c < kSoakChunks; ++c) {
      svc::SoakOptions chunk =
          soak_options(args, args.seconds / static_cast<double>(kSoakChunks));
      chunk.seed = derive(args.seed, kSoak, c);
      svc::SoakReport r = soak(chunk, report);
      rate.push_back(ratio(static_cast<double>(r.completed), r.wall_seconds));
      p50.push_back(r.latency_ms.p50);
      p99.push_back(r.latency_ms.p99);
      pulse_rate.push_back(ratio(
          static_cast<double>(counter(r, "svc.pulses")), r.wall_seconds));
      samples += r.latency_ms.count;
    }
    report.set("setup_s", setup_s);
    report.set("elections_per_s", median(rate));
    report.set("election_ms_p50", median(p50));
    report.set("election_ms_tail", median(p99));
    report.set("pulses_per_s", median(pulse_rate));
    report.set("peak_rss_mb", peak_rss_mb());
    // The soak report exposes p50/p95/p99 only; with 10^5 elections per
    // chunk, p99 leaves far more than 10 samples beyond it.
    report.note("election_ms_tail_percentile", "p99 (median over chunks)");
    report.note("latency_samples", std::to_string(samples));
    return;
  }

  svc::SoakReport plain = soak(soak_options(args, args.seconds / 2), report);
  double utilization = 0.0;
  for (const auto& s : plain.shards) utilization += s.utilization;
  const double attempts = static_cast<double>(plain.attempts);
  report.set("svc.attempts_per_election",
             ratio(attempts, static_cast<double>(plain.started)));
  report.set("svc.useful_attempt_frac",
             ratio(static_cast<double>(plain.completed), attempts));
  report.set("svc.events_per_attempt",
             ratio(static_cast<double>(counter(plain, "svc.events_delivered")),
                   attempts));
  report.set("svc.shard_utilization",
             ratio(utilization, static_cast<double>(plain.shards.size())));

  // Traced: the same closed loop per shard as run_soak, driven from here so
  // spans can wrap ChurnEngine::spec and run_supervised.
  struct ShardProbe {
    SpanLog log;
    std::vector<double> ms;
    std::vector<std::string> failures;
    std::uint64_t spec_ns = 0, supervised_ns = 0, events = 0;
  };
  std::vector<ShardProbe> probes(options.shards);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds / 2));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < options.shards; ++t) {
    pool.emplace_back([&options, &probes, deadline, t] {
      ShardProbe& probe = probes[t];
      std::vector<svc::ChurnEngine> engines;
      for (std::size_t slot = t; slot < options.rings; slot += options.shards) {
        engines.emplace_back(options.seed, slot, options.churn);
      }
      std::vector<std::uint64_t> next(engines.size(), 0);
      for (std::size_t i = 0; Clock::now() < deadline;
           i = (i + 1) % engines.size()) {
        const std::uint64_t election = next[i]++;
        const std::uint64_t t0 = now_ns();
        engines[i].spec(election, 0, options.policy.clean_after_attempts);
        const std::uint64_t t1 = now_ns();
        const svc::ElectionReport er =
            svc::run_supervised(engines[i], election, options.policy);
        const std::uint64_t t2 = now_ns();
        const std::int64_t root = probe.log.add("election", t0, t2, -1, election);
        probe.log.add("svc.spec", t0, t1, root, election);
        probe.log.add("svc.supervised", t1, t2, root, election);
        probe.spec_ns += t1 - t0;
        probe.supervised_ns += t2 - t1;
        probe.events += er.events_consumed;
        probe.ms.push_back(ms_between(t1, t2));
        if (!er.completed) {
          probe.failures.push_back("slot " +
                                   std::to_string(engines[i].slot()) +
                                   " election " + std::to_string(election) +
                                   ": " + er.diagnosis);
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  std::vector<double> ms;
  std::uint64_t spec_ns = 0, supervised_ns = 0, events = 0;
  for (const ShardProbe& probe : probes) {
    log.merge(probe.log);
    ms.insert(ms.end(), probe.ms.begin(), probe.ms.end());
    spec_ns += probe.spec_ns;
    supervised_ns += probe.supervised_ns;
    events += probe.events;
    for (const auto& f : probe.failures) report.fail(f);
  }
  report.attempted += ms.size();
  const auto elections = static_cast<double>(ms.size());
  report.set("svc.spec_ns", ratio(static_cast<double>(spec_ns), elections));
  report.set("svc.supervised_us",
             ratio(static_cast<double>(supervised_ns) / 1e3, elections));
  report.set("svc.ns_per_event", ratio(static_cast<double>(supervised_ns),
                                       static_cast<double>(events)));
  report.set("bench.trace_overhead",
             ratio(median(ms), plain.latency_ms.p50) - 1.0);
}

// --- coro-ring --------------------------------------------------------------

struct CoroElection {
  Sample sample;
  coro::ExecStats stats;
};

CoroElection elect_coro(const std::vector<std::uint64_t>& ids) {
  coro::CoroRunOptions o;
  o.workers = kCoroWorkers;
  o.timeout_ms = kTimeoutMs;
  const auto t0 = Clock::now();
  const coro::CoroRunResult r =
      coro::run_on_coro(ids, {}, rt::ThreadAlg::alg2, o);
  CoroElection e;
  e.sample.ms = seconds_since(t0) * 1e3;
  e.sample.pulses = r.pulses;
  e.sample.failure =
      check_election(ids, r.completed, r.pulses, r.leader_count, r.leader);
  e.stats = r.stats;
  return e;
}

void run_coro_ring(const Args& args, SpanLog& log, Report& report) {
  std::vector<std::vector<std::uint64_t>> pool;
  const double setup_s = timed_setup([&] {
    pool = shuffled_pool(kCoroN, args.seed);
    const auto warm = util::shuffled(util::dense_ids(kCoroWarmupN),
                                     derive(args.seed, kWarmup));
    const Sample s = elect_coro(warm).sample;
    if (!s.failure.empty()) report.fail("warm-up: " + s.failure);
  });
  auto untraced = [&](std::size_t k) {
    return elect_coro(pool[k % pool.size()]).sample;
  };
  if (!args.trace) {
    set_end_to_end(report, {closed_loop(args.seconds, report, untraced)},
                   setup_s, kCoroTailQ);
    return;
  }
  coro::ExecStats sum;
  std::uint64_t pulses = 0, worker_ns = 0, elections = 0;
  alternating_loop(args.seconds, report, untraced, [&](std::size_t k) {
    ++elections;
    const std::uint64_t t0 = now_ns();
    const CoroElection e = elect_coro(pool[k % pool.size()]);
    const std::uint64_t t1 = now_ns();
    log.add("coro.run", t0, t1, log.add("election", t0, t1, -1, k), k);
    const coro::ExecStats& s = e.stats;
    sum.resumes += s.resumes;
    sum.yields += s.yields;
    sum.wakeups += s.wakeups;
    sum.batched += s.batched;
    sum.parks += s.parks;
    sum.steals += s.steals;
    pulses += e.sample.pulses;
    worker_ns += (t1 - t0) * s.workers;
    return e.sample;
  });
  const auto p = static_cast<double>(pulses);
  const auto resumes = static_cast<double>(sum.resumes);
  const auto traced = static_cast<double>(elections);
  report.set("coro.resumes_per_pulse", ratio(resumes, p));
  report.set("coro.yields_per_resume",
             ratio(static_cast<double>(sum.yields), resumes));
  report.set("coro.wakeups_per_pulse",
             ratio(static_cast<double>(sum.wakeups), p));
  report.set("coro.batched_per_pulse",
             ratio(static_cast<double>(sum.batched), p));
  report.set("coro.parks", ratio(static_cast<double>(sum.parks), traced));
  report.set("coro.steals", ratio(static_cast<double>(sum.steals), traced));
  report.set("coro.ns_per_resume",
             ratio(static_cast<double>(worker_ns), resumes));
}

// --- socket-ring ------------------------------------------------------------

/// n = 3: IDmax = 2000 at a seeded position, the other two IDs small and
/// distinct, so the per-pulse data plane dominates the fixed formation and
/// quiescence rounds.
std::vector<std::vector<std::uint64_t>> socket_pool(std::uint64_t seed) {
  std::vector<std::vector<std::uint64_t>> pool;
  for (std::size_t i = 0; i < kInputPool; ++i) {
    util::Xoshiro256StarStar rng(derive(seed, kIds, i));
    const std::vector<std::uint64_t> small =
        util::sparse_ids(kSocketN - 1, kSocketSmallIdMax, rng.next());
    std::vector<std::uint64_t> ids(small.begin(), small.end());
    ids.insert(ids.begin() + static_cast<std::ptrdiff_t>(rng.below(kSocketN)),
               kSocketIdMax);
    pool.push_back(ids);
  }
  return pool;
}

Sample elect_socket(const std::vector<std::uint64_t>& ids,
                    net::SocketRunResult* out = nullptr,
                    obs::FlightRecorder* flight = nullptr) {
  net::SocketRunOptions o;
  o.timeout_ms = kTimeoutMs;
  o.flight = flight;
  const auto t0 = Clock::now();
  net::SocketRunResult r = net::run_on_sockets(ids, {}, rt::ThreadAlg::alg2, o);
  Sample s;
  s.ms = seconds_since(t0) * 1e3;
  s.pulses = r.pulses;
  s.failure =
      check_election(ids, r.completed, r.pulses, r.leader_count, r.leader);
  if (s.failure.empty() && r.pulses != r.consumed) {
    s.failure = "pulses " + std::to_string(r.pulses) + " != consumed " +
                std::to_string(r.consumed);
  }
  if (s.failure.empty() && r.wire.bytes_tx != r.wire.bytes_rx) {
    s.failure = "bytes_tx " + std::to_string(r.wire.bytes_tx) +
                " != bytes_rx " + std::to_string(r.wire.bytes_rx);
  }
  if (!s.failure.empty() && !r.stall_dump.empty()) {
    s.failure += " | " + r.stall_dump.substr(0, 200);
  }
  if (out != nullptr) *out = std::move(r);
  return s;
}

void run_socket_ring(const Args& args, SpanLog& log, Report& report) {
  std::vector<std::vector<std::uint64_t>> pool;
  const double setup_s = timed_setup([&] {
    pool = socket_pool(args.seed);
    const auto warm = util::shuffled({1, 2, kSocketWarmupIdMax},
                                     derive(args.seed, kWarmup));
    const Sample s = elect_socket(warm);
    if (!s.failure.empty()) report.fail("warm-up: " + s.failure);
  });
  auto untraced = [&](std::size_t k) {
    return elect_socket(pool[k % pool.size()]);
  };
  if (!args.trace) {
    std::vector<Loop> chunks;
    for (std::size_t c = 0; c < kSocketChunks; ++c) {
      chunks.push_back(closed_loop(
          args.seconds / static_cast<double>(kSocketChunks), report, untraced));
    }
    set_end_to_end(report, chunks, setup_s, kSocketTailQ);
    return;
  }
  net::EndpointCounters wire;
  std::uint64_t pulses = 0, probe_rounds = 0;
  std::vector<double> formation, elect, quiesce, teardown, sum_error;
  alternating_loop(args.seconds, report, untraced, [&](std::size_t k) {
    obs::FlightRecorder flight(256);
    net::SocketRunResult r;
    const std::uint64_t t0 = now_ns();
    Sample s = elect_socket(pool[k % pool.size()], &r, &flight);
    const std::uint64_t t_end = now_ns();
    // Stage boundaries from the coordinator's flight ring.
    std::uint64_t go = 0, probe = 0, quiescent = 0, complete = 0;
    for (const obs::FlightEvent& e : flight.ring("net.coordinator").snapshot()) {
      const std::string what = e.what;
      if (what == "go") go = e.t_ns;
      if (what == "probe" && probe == 0) probe = e.t_ns;
      if (what == "quiescent") quiescent = e.t_ns;
      if (what == "complete") complete = e.t_ns;
    }
    const std::int64_t root = log.add("election", t0, t_end, -1, k);
    if (!s.failure.empty()) return s;
    if (go == 0 || probe == 0 || quiescent == 0 || complete == 0) {
      s.failure = "coordinator flight ring lacks a stage event";
      return s;
    }
    log.add("net.formation", t0, go, root, k);
    log.add("net.elect", go, probe, root, k);
    log.add("net.quiesce", probe, quiescent, root, k);
    log.add("net.teardown", quiescent, complete, root, k);
    formation.push_back(ms_between(t0, go));
    elect.push_back(ms_between(go, probe));
    quiesce.push_back(ms_between(probe, quiescent));
    teardown.push_back(ms_between(quiescent, complete));
    const double stages = ms_between(t0, complete);
    const double wall = ms_between(t0, t_end);
    const double error = std::abs(stages - wall) / wall;
    sum_error.push_back(error);
    if (error > kStageSumTolerance) {
      s.failure = "stage times sum to " + std::to_string(stages) +
                  " ms of a " + std::to_string(wall) + " ms election";
    }
    wire += r.wire;
    pulses += r.pulses;
    probe_rounds += r.probe_rounds;
    return s;
  });
  const auto p = static_cast<double>(pulses);
  const auto elections = static_cast<double>(formation.size());
  report.set("net.formation_ms", median(formation));
  report.set("net.elect_ms", median(elect));
  report.set("net.quiesce_ms", median(quiesce));
  report.set("net.teardown_ms", median(teardown));
  report.set("net.stage_sum_error", median(sum_error));
  report.set("net.polls_per_pulse", ratio(static_cast<double>(wire.polls), p));
  report.set("net.flushes_per_pulse",
             ratio(static_cast<double>(wire.flushes), p));
  report.set("net.bytes_tx_per_pulse",
             ratio(static_cast<double>(wire.bytes_tx), p));
  report.set("net.probe_rounds",
             ratio(static_cast<double>(probe_rounds), elections));
  report.set("net.reports_per_election",
             ratio(static_cast<double>(wire.reports), elections));
}

// --- output -----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print_report(const Args& args, const Report& r) {
  for (const auto& [name, value] : r.metrics) {
    std::cout << "  " << name << " = " << json_number(value) << "\n";
  }
  for (const auto& [key, value] : r.notes) {
    std::cout << "  " << key << ": " << value << "\n";
  }
  for (const auto& f : r.failures) std::cout << "  FAILED " << f << "\n";
  std::ostringstream os;
  os << "PERFBENCH {\"workload\":" << json_string(args.workload)
     << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"correct\":" << (r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i ? "," : "") << json_string(r.failures[i]);
  }
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    os << (i ? "," : "") << json_string(r.metrics[i].first) << ":"
       << json_number(r.metrics[i].second);
  }
  os << "},\"notes\":{";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    os << (i ? "," : "") << json_string(r.notes[i].first) << ":"
       << json_string(r.notes[i].second);
  }
  os << "},\"env\":{\"compiler\":" << json_string(compiler())
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
     << "}}";
  std::cout << os.str() << std::endl;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int bench_main(int argc, char** argv, const SchedulerWrap& wrap) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: " << argv[0]
              << " --workload sim-large-ring|soak-steady|coro-ring|"
                 "socket-ring --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n";
    return 2;
  }
  std::cout << "workload " << args.workload << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  Report report;
  SpanLog log;
  if (args.workload == "sim-large-ring") {
    run_sim_large_ring(args, wrap, log, report);
  } else if (args.workload == "soak-steady") {
    run_soak_steady(args, log, report);
  } else if (args.workload == "coro-ring") {
    run_coro_ring(args, log, report);
  } else if (args.workload == "socket-ring") {
    run_socket_ring(args, log, report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (args.trace && !args.spans.empty() && !log.write(args.spans)) {
    report.fail("could not write spans to " + args.spans);
  }
  print_report(args, report);
  return 0;
}

}  // namespace colex::perfbench
