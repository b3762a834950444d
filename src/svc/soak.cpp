#include "svc/soak.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/serve.hpp"
#include "runtime/progress.hpp"
#include "sim/parallel.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shard stall detection: the monitor samples every shard's finished count
/// each kSampleEvery, keeps the last kProgressDepth samples, and flags a
/// shard whose last kStallWindow samples are flat.
constexpr std::chrono::milliseconds kSampleEvery{250};
constexpr std::size_t kProgressDepth = 16;
constexpr std::size_t kStallWindow = 8;

/// Latency bucket edges (milliseconds): sim elections are tens of
/// microseconds to a few milliseconds; the long tail catches retry storms.
const std::vector<double> kLatencyBoundsMs = {0.01, 0.025, 0.05, 0.1,  0.25,
                                              0.5,  1.0,   2.5,  5.0,  10.0,
                                              50.0, 250.0};

/// Everything one shard thread owns. Only the two `visible_*` atomics are
/// read by another thread (the monitor); the rest follows the registry
/// ownership contract — written solely by the shard, merged after join.
struct Shard {
  std::vector<ChurnEngine> engines;         // one per owned slot
  std::vector<std::uint64_t> next_election; // per owned slot
  obs::Registry registry;
  // Grows in fixed-size blocks: no doubling copies and no spare capacity,
  // and a later soak in the same process reuses the freed blocks.
  std::deque<double> latencies_ms;
  std::vector<std::string> violations;
  double busy_seconds = 0.0;
  std::uint64_t attempts = 0;
  std::atomic<std::uint64_t> visible_finished{0};
  std::atomic<bool> done{false};
  // Double-buffered live view: the shard thread (sole registry writer)
  // copies its registry here roughly every 200ms; scrapes and snapshot
  // writes merge these copies under the mutex instead of ever touching a
  // live registry. Untouched (empty) when no server/snapshot consumer runs.
  std::mutex snapshot_mutex;
  obs::Registry snapshot;
};

struct SharedState {
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> finished{0};
};

void shard_main(Shard& shard, std::size_t shard_index, SharedState& shared,
                const SoakOptions& options, Clock::time_point deadline,
                bool publish_live) {
  obs::Registry& reg = shard.registry;
  // Resolve metric handles once; the loop increments through references.
  // Every family is registered here, before the first election, so even an
  // early scrape of a zero-election shard exposes the full family set (the
  // live scrape and the end-of-run snapshot must render the same `# TYPE`
  // lines).
  obs::Counter& c_elections = reg.counter("elections");
  obs::Counter* c_phase[sim::kPhaseCount];
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    c_phase[i] =
        &reg.counter(obs::labeled("pulses", "phase", sim::phase_name(i)));
  }
  obs::Counter& c_started = reg.counter("svc.elections.started");
  obs::Counter& c_completed = reg.counter("svc.elections.completed");
  obs::Counter& c_retried = reg.counter("svc.elections.retried");
  obs::Counter& c_abandoned = reg.counter("svc.elections.abandoned");
  obs::Counter& c_stalled = reg.counter("svc.elections.stalled");
  obs::Counter& c_diverged = reg.counter("svc.elections.diverged");
  obs::Counter& c_safety = reg.counter("svc.elections.safety_violated");
  obs::Counter& c_attempts = reg.counter("svc.attempts");
  obs::Counter& c_coro_attempts = reg.counter("svc.attempts_coro");
  obs::Counter& c_socket_attempts = reg.counter("svc.attempts_socket");
  obs::Counter& c_retries = reg.counter("svc.retries");
  obs::Counter& c_faults = reg.counter("svc.faults_applied");
  obs::Counter& c_pulses = reg.counter("svc.pulses");
  obs::Counter& c_events = reg.counter("svc.events_delivered");
  obs::Histogram& h_latency =
      reg.histogram("svc.election_ms", kLatencyBoundsMs);
  obs::Gauge& g_util = reg.gauge(obs::labeled(
      "svc.shard_utilization", "shard", std::to_string(shard_index)));

  const auto publish_snapshot = [&shard, &reg] {
    std::lock_guard<std::mutex> lock(shard.snapshot_mutex);
    shard.snapshot = reg;
  };
  const auto publish_every = std::chrono::milliseconds(200);
  auto next_publish = Clock::now();
  const auto t_start = Clock::now();

  auto should_stop = [&shared, &options, deadline] {
    const std::uint64_t finished = shared.finished.load();
    if (options.max_elections != 0 && finished >= options.max_elections) {
      return true;
    }
    return Clock::now() >= deadline && finished >= options.min_elections;
  };

  const std::size_t slots = shard.engines.size();
  for (std::size_t i = 0; !should_stop(); i = (i + 1) % slots) {
    shared.started.fetch_add(1);
    c_started.inc();
    const auto t0 = Clock::now();
    const std::uint64_t election = shard.next_election[i]++;
    const ElectionReport er =
        run_supervised(shard.engines[i], election, options.policy);
    const double elapsed = seconds_since(t0);
    shard.busy_seconds += elapsed;
    const double ms = elapsed * 1e3;
    shard.latencies_ms.push_back(ms);
    h_latency.record(ms);
    shard.attempts += er.attempts;
    c_attempts.inc(er.attempts);
    c_coro_attempts.inc(er.coro_attempts);
    c_socket_attempts.inc(er.socket_attempts);
    if (er.attempts > 1) {
      c_retried.inc();
      c_retries.inc(er.attempts - 1);
    }
    c_faults.inc(er.faults_applied);
    c_pulses.inc(er.pulses);
    c_events.inc(er.events_consumed);
    for (std::size_t p = 0; p < sim::kPhaseCount; ++p) {
      c_phase[p]->inc(er.phase_pulses[p]);
    }
    if (er.completed) {
      c_completed.inc();
    } else if (er.final_outcome == sim::FaultOutcome::safety_violated) {
      c_safety.inc();
      if (shard.violations.size() < 8) {
        std::ostringstream os;
        os << "slot " << shard.engines[i].slot() << " election " << election
           << ": " << er.diagnosis;
        shard.violations.push_back(os.str());
      }
    } else {
      c_abandoned.inc();
      if (er.final_outcome == sim::FaultOutcome::diverged) {
        c_diverged.inc();
      } else {
        c_stalled.inc();
      }
      if (shard.violations.size() < 8) {
        std::ostringstream os;
        os << "slot " << shard.engines[i].slot() << " election " << election
           << " abandoned after " << er.attempts << " attempts ("
           << sim::to_string(er.final_outcome) << "): " << er.diagnosis;
        shard.violations.push_back(os.str());
      }
    }
    c_elections.inc();
    shared.finished.fetch_add(1);
    shard.visible_finished.fetch_add(1);
    if (publish_live) {
      const auto now = Clock::now();
      if (now >= next_publish) {
        g_util.set(shard.busy_seconds /
                   std::max(1e-9, std::chrono::duration<double>(now - t_start)
                                      .count()));
        publish_snapshot();
        next_publish = now + publish_every;
      }
    }
  }
  if (publish_live) publish_snapshot();  // final live view before join
  shard.done.store(true);
}

std::uint64_t counter_value(const obs::Registry& reg,
                            const std::string& name) {
  for (const auto& [n, c] : reg.counters()) {
    if (n == name) return c->value();
  }
  return 0;
}

/// Rewrites `path` as a colex-trace-v1 snapshot embedding `metrics`. The
/// meta line says n=0 (no ring shape — a soak is thousands of rings), which
/// colex-inspect treats as "print the metrics, skip the audit".
bool write_snapshot(const std::string& path, const obs::Registry& metrics) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  obs::TraceMeta meta;
  meta.algorithm = "soak";
  obs::write_jsonl(out, /*events=*/{}, meta, &metrics);
  return out.good();
}

}  // namespace

std::string SoakReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"colex-soak-v1\""
     << ",\"rings\":" << rings << ",\"shards\":" << shards_used
     << ",\"wall_seconds\":" << wall_seconds << ",\"started\":" << started
     << ",\"completed\":" << completed << ",\"retried\":" << retried
     << ",\"abandoned\":" << abandoned << ",\"stalled\":" << stalled
     << ",\"diverged\":" << diverged
     << ",\"safety_violated\":" << safety_violated
     << ",\"attempts\":" << attempts
     << ",\"coro_attempts\":" << coro_attempts
     << ",\"socket_attempts\":" << socket_attempts
     << ",\"backend\":\"" << backend << "\""
     << ",\"faults_applied\":" << faults_applied
     << ",\"elections_per_second\":" << elections_per_second
     << ",\"latency_ms\":{\"mean\":" << latency_ms.mean
     << ",\"p50\":" << latency_ms.p50 << ",\"p95\":" << latency_ms.p95
     << ",\"p99\":" << latency_ms.p99 << ",\"max\":" << latency_ms.max << "}"
     << ",\"stalled_shards\":";
  std::size_t stalled_shards = 0;
  for (const auto& s : shards) stalled_shards += s.stalled ? 1 : 0;
  os << stalled_shards << ",\"ok\":" << (ok() ? "true" : "false") << "}";
  return os.str();
}

SoakReport run_soak(const SoakOptions& options) {
  COLEX_EXPECTS(options.rings >= 1);
  COLEX_EXPECTS(options.duration_seconds >= 0.0);
  const std::size_t shard_count =
      std::min(options.rings, options.shards == 0 ? sim::default_workers()
                                                  : options.shards);

  std::vector<Shard> shards(shard_count);
  for (std::size_t slot = 0; slot < options.rings; ++slot) {
    Shard& shard = shards[slot % shard_count];
    shard.engines.emplace_back(options.seed, slot, options.churn);
    shard.next_election.push_back(0);
  }

  SharedState shared;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(options.duration_seconds));

  // Live consumers (the /metrics server and the periodic snapshot file)
  // read shard-published registry copies; shards skip the ~200ms publish
  // entirely when nobody will read it.
  const bool publish_live =
      options.serve >= 0 || !options.snapshot_path.empty();

  // Merged live view: shard-published snapshots plus the monitor's
  // liveness gauges — exactly the families the final report registry
  // carries, so a mid-run scrape and the end-of-run snapshot render the
  // same `# TYPE` set.
  auto merged_live = [&shards, shard_count, &shared, &options, t0] {
    obs::Registry live;
    for (std::size_t s = 0; s < shard_count; ++s) {
      std::lock_guard<std::mutex> lock(shards[s].snapshot_mutex);
      live.merge(shards[s].snapshot);
    }
    const double up = seconds_since(t0);
    live.gauge("svc.uptime_seconds").set(up);
    live.gauge("svc.rings").set(static_cast<double>(options.rings));
    live.gauge("svc.shards").set(static_cast<double>(shard_count));
    live.gauge("svc.elections_per_second")
        .set(up > 0.0 ? static_cast<double>(shared.finished.load()) / up
                      : 0.0);
    return live;
  };

  // Monitor-side flight recorder: one ring, written only by the monitor
  // thread, served live on /debug/flight.
  obs::FlightRecorder flight;
  obs::FlightRing& flight_ring = flight.ring("monitor");

  std::unique_ptr<obs::MetricsServer> server;
  if (options.serve >= 0) {
    obs::MetricsServer::Options so;
    so.port = static_cast<std::uint16_t>(options.serve);
    so.metrics = merged_live;
    so.flight = [&flight] { return flight.render_tail(64); };
    server = std::make_unique<obs::MetricsServer>(std::move(so));
    if (server->start()) {
      if (options.on_serve) options.on_serve(server->port());
    } else {
      server.reset();  // degrade to snapshot-file-only, keep soaking
    }
  }

  std::vector<std::thread> pool;
  pool.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    pool.emplace_back(
        [&shards, &shared, &options, deadline, s, publish_live] {
          shard_main(shards[s], s, shared, options, deadline, publish_live);
        });
  }

  // The calling thread is the monitor: shard-level stall watchdog plus the
  // periodic snapshot file. All its inputs are the visible_* atomics — it
  // never touches a live shard's registry.
  SoakReport report;
  report.rings = options.rings;
  report.shards_used = shard_count;
  rt::ProgressTracker global_progress(kProgressDepth);
  // deque, not vector: ProgressTracker owns a mutex and is immovable.
  std::deque<rt::ProgressTracker> shard_progress;
  std::vector<bool> shard_stalled(shard_count, false);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shard_progress.emplace_back(kProgressDepth);
  }
  auto all_done = [&shards] {
    for (const auto& s : shards) {
      if (!s.done.load()) return false;
    }
    return true;
  };
  auto next_sample = t0;
  auto next_snapshot = t0;
  while (!all_done()) {
    const auto now = Clock::now();
    if (now >= next_sample) {
      const double t_ms = seconds_since(t0) * 1e3;
      for (std::size_t s = 0; s < shard_count; ++s) {
        const std::uint64_t finished = shards[s].visible_finished.load();
        std::ostringstream os;
        os << "t=" << static_cast<std::uint64_t>(t_ms) << "ms shard " << s
           << " finished=" << finished;
        shard_progress[s].record(finished, os.str());
        if (!shards[s].done.load() &&
            shard_progress[s].stalled_tail(kStallWindow)) {
          if (!shard_stalled[s]) flight_ring.record("shard-stalled", s);
          shard_stalled[s] = true;  // sticky: reported post-join
        }
      }
      std::ostringstream os;
      os << "t=" << static_cast<std::uint64_t>(t_ms)
         << "ms started=" << shared.started.load()
         << " finished=" << shared.finished.load();
      global_progress.record(shared.finished.load(), os.str());
      next_sample = now + kSampleEvery;
    }
    if (!options.snapshot_path.empty() && now >= next_snapshot) {
      if (write_snapshot(options.snapshot_path, merged_live())) {
        ++report.snapshots_written;
        flight_ring.record("snapshot", report.snapshots_written,
                           shared.finished.load());
      }
      next_snapshot =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        options.snapshot_every_seconds));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& th : pool) th.join();
  flight_ring.record("all-shards-done", shared.finished.load());
  report.wall_seconds = seconds_since(t0);

  // Post-join merge: single-threaded from here on. Every election's latency
  // is kept, so each copy of them is the soak's largest allocation: merge
  // into one exactly sized vector, free each shard's as it is merged, and
  // hand the merged one to summarize without a copy.
  std::vector<double> latencies;
  std::size_t latency_count = 0;
  for (const Shard& shard : shards) latency_count += shard.latencies_ms.size();
  latencies.reserve(latency_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& shard = shards[s];
    report.metrics.merge(shard.registry);
    latencies.insert(latencies.end(), shard.latencies_ms.begin(),
                     shard.latencies_ms.end());
    std::deque<double>().swap(shard.latencies_ms);
    ShardStats stats;
    stats.elections = shard.visible_finished.load();
    stats.attempts = shard.attempts;
    stats.busy_seconds = shard.busy_seconds;
    stats.utilization = report.wall_seconds > 0.0
                            ? shard.busy_seconds / report.wall_seconds
                            : 0.0;
    stats.stalled = shard_stalled[s];
    report.shards.push_back(stats);
    for (const auto& v : shard.violations) {
      if (report.violations.size() < 16) report.violations.push_back(v);
    }
    // Same family the shard publishes live (gauges merge by max, and a
    // mid-run utilization can exceed the final one): overwrite with the
    // true whole-run value.
    report.metrics
        .gauge(obs::labeled("svc.shard_utilization", "shard",
                            std::to_string(s)))
        .set(stats.utilization);
  }
  report.started = shared.started.load();
  report.completed = counter_value(report.metrics, "svc.elections.completed");
  report.retried = counter_value(report.metrics, "svc.elections.retried");
  report.abandoned = counter_value(report.metrics, "svc.elections.abandoned");
  report.stalled = counter_value(report.metrics, "svc.elections.stalled");
  report.diverged = counter_value(report.metrics, "svc.elections.diverged");
  report.safety_violated =
      counter_value(report.metrics, "svc.elections.safety_violated");
  report.attempts = counter_value(report.metrics, "svc.attempts");
  report.coro_attempts = counter_value(report.metrics, "svc.attempts_coro");
  report.socket_attempts =
      counter_value(report.metrics, "svc.attempts_socket");
  report.backend = to_string(options.policy.backend);
  report.faults_applied =
      counter_value(report.metrics, "svc.faults_applied");
  report.latency_ms = util::summarize(std::move(latencies));
  report.elections_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.started) / report.wall_seconds
          : 0.0;
  report.progress = global_progress.history();
  report.metrics.gauge("svc.uptime_seconds").set(report.wall_seconds);
  report.metrics.gauge("svc.rings").set(static_cast<double>(options.rings));
  report.metrics.gauge("svc.shards").set(static_cast<double>(shard_count));
  report.metrics.gauge("svc.elections_per_second")
      .set(report.elections_per_second);

  // Final snapshot carries the full merged registry, not just the atomics.
  if (!options.snapshot_path.empty() &&
      write_snapshot(options.snapshot_path, report.metrics)) {
    ++report.snapshots_written;
  }
  // Stop the server before anything it scrapes goes out of scope.
  if (server) server->stop();
  return report;
}

}  // namespace colex::svc
