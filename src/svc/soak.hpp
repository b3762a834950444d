// Election-as-a-service soak harness: a sharded multi-ring driver that
// multiplexes thousands of concurrent independent elections under sustained
// churn and supervises every one of them.
//
// Architecture
// ------------
// `rings` slots are statically partitioned across a fixed pool of `shards`
// worker threads (slot i belongs to shard i % shards — the same fixed-pool
// shape as sim/parallel.hpp, with static instead of work-stealing
// assignment because slots are homogeneous and endless). Each shard loops
// round-robin over its slots; per visit it runs one fully supervised
// election (svc/supervisor.hpp) for that slot's ChurnEngine and records the
// outcome. Rings never outlive an election: every visit respawns a fresh
// ring with a fresh size — ring retirement IS the loop structure.
//
// SupervisorPolicy::backend selects the execution substrate for clean
// attempts: `sim` (default) runs them on the deterministic simulator,
// `coro` runs them as real coroutines on the work-stealing executor
// (src/coro), exercising the production runtime under churn. Faulty
// attempts always run on sim, where fault injection lives.
//
// Ownership and thread-safety follow the obs registry contract: each shard
// owns a private obs::Registry, latency vector, and outcome tallies,
// written only by that shard's thread and merged after the join. The only
// cross-thread state is a handful of relaxed atomics (started/finished
// counters, per-shard finished counts, the stop flag) that the monitor
// samples.
//
// The calling thread is the monitor: it samples per-shard progress into
// runtime::ProgressTracker windows (the executor watchdog's last-N idea
// lifted to shard granularity — a flat tail flags a stalled shard), and
// periodically rewrites a colex-trace-v1 snapshot file carrying the live
// metrics registry, which `colex-inspect summary` prints. A stalled shard
// cannot wedge the run: every attempt has a hard event budget, so the flag
// is diagnostic, not load-bearing.
//
// The service-level gate a soak must pass (SoakReport::ok()): zero
// safety-violated, zero diverged, zero abandoned elections — with the
// supervisor guaranteeing that every COMPLETED election carried a unique
// max-ID leader within the Theorem 1 pulse bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/churn.hpp"
#include "svc/supervisor.hpp"
#include "util/stats.hpp"

namespace colex::svc {

struct SoakOptions {
  /// Wall-clock duration. The run stops once the duration elapsed AND
  /// min_elections completed; a shard always finishes its in-flight
  /// election, never aborting one mid-run.
  double duration_seconds = 10.0;
  /// Concurrent ring slots (each an independent election stream).
  std::size_t rings = 1024;
  /// Worker threads; 0 = hardware concurrency, capped at `rings`.
  std::size_t shards = 0;
  std::uint64_t seed = 1;
  ChurnProfile churn = ChurnProfile::preset(ChurnPreset::steady);
  SupervisorPolicy policy;
  /// Keep running past the duration until this many elections finished.
  std::uint64_t min_elections = 0;
  /// Stop early once this many elections finished (0 = duration-driven).
  std::uint64_t max_elections = 0;
  /// When non-empty, the monitor rewrites this file every
  /// snapshot_every_seconds (and once at the end) as a colex-trace-v1 JSONL
  /// snapshot embedding the current metrics — `colex-inspect summary` on it
  /// prints the live counters of a running soak.
  std::string snapshot_path;
  double snapshot_every_seconds = 1.0;
  /// When >= 0, serve a live Prometheus /metrics endpoint (obs/serve.hpp)
  /// on 127.0.0.1:<serve> for the duration of the soak (0 = pick an
  /// ephemeral port). Each shard publishes a snapshot of its registry
  /// roughly every 200ms; a scrape merges the published snapshots plus the
  /// monitor's liveness gauges — the same families the final snapshot file
  /// renders. -1 (default) spawns no server thread at all.
  int serve = -1;
  /// Called once with the bound port when the server is up (ephemeral port
  /// discovery for tools and tests). Not called if the server failed to
  /// start — the soak then degrades to snapshot-file-only and runs on.
  std::function<void(std::uint16_t)> on_serve;
};

struct ShardStats {
  std::uint64_t elections = 0;  ///< elections finished by this shard
  std::uint64_t attempts = 0;
  double busy_seconds = 0.0;
  double utilization = 0.0;  ///< busy_seconds / wall_seconds
  bool stalled = false;      ///< flat progress tail at some sample point
};

struct SoakReport {
  std::size_t rings = 0;         ///< slots driven
  std::size_t shards_used = 0;   ///< worker threads actually spawned
  std::uint64_t started = 0;
  std::uint64_t completed = 0;  ///< final outcome recovered_correct
  std::uint64_t retried = 0;    ///< completed or not, needed > 1 attempt
  std::uint64_t abandoned = 0;  ///< attempt budget exhausted
  // Final-outcome tallies of the abandoned/fatal elections.
  std::uint64_t stalled = 0;   ///< abandoned with a final stalled attempt
  std::uint64_t diverged = 0;  ///< abandoned with a final diverged attempt
  std::uint64_t safety_violated = 0;
  std::uint64_t attempts = 0;
  std::uint64_t coro_attempts = 0;  ///< attempts run on the coro backend
  std::uint64_t socket_attempts = 0;  ///< attempts run on the socket backend
  std::string backend = "sim";      ///< substrate clean attempts ran on
  std::uint64_t faults_applied = 0;
  double wall_seconds = 0.0;
  double elections_per_second = 0.0;
  util::Summary latency_ms;  ///< per-election wall latency incl. retries
  std::vector<ShardStats> shards;
  std::vector<std::string> progress;    ///< global progress history
  std::vector<std::string> violations;  ///< first few fatal diagnoses
  obs::Registry metrics;                ///< merged across shards
  std::uint64_t snapshots_written = 0;

  /// The service-level gate: every started election completed correctly.
  bool ok() const {
    return safety_violated == 0 && diverged == 0 && abandoned == 0 &&
           started == completed;
  }

  /// One-line machine-readable summary (colex-soak --json prints it;
  /// ci.sh greps the zero-violation keys).
  std::string to_json() const;
};

SoakReport run_soak(const SoakOptions& options);

}  // namespace colex::svc
