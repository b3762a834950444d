// Exhaustive schedule exploration ("model checking" the adversary): for
// small configurations, enumerate EVERY delivery order the asynchronous
// adversary could choose and validate each complete execution.
//
// The tree: branch on every pending channel, in ascending channel order; a
// leaf is a quiescent execution. The engine is a fork-based DFS. The
// frontier state is a live Network; each branch forks it with
// Network::clone() and advances the fork one delivery with deliver_step().
// Cost per tree node: one clone plus one delivery (the last branch reuses
// the parent state in place, so chains cost no clone at all). This is what
// makes n = 4 rings and high-budget fault sweeps exhaustively checkable.
//
// qa/replay_explore.hpp keeps the replay-from-scratch engine that defines
// the same tree without forking; tests/test_explore_engines.cpp and
// qa::check_engine_agreement require identical stats and per-leaf outcome
// sequences from both, and BENCH_E12.json times one against the other.
// For multi-threaded exploration of the same tree see sim/parallel.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "sim/network.hpp"
#include "util/contracts.hpp"

namespace colex::sim {

struct ExploreStats {
  std::uint64_t leaves = 0;      ///< complete (quiescent) executions seen
  std::uint64_t truncated = 0;   ///< subtrees skipped when budget ran out
  std::uint64_t max_depth = 0;   ///< deliveries on the deepest path
  bool exhaustive() const { return truncated == 0; }

  friend bool operator==(const ExploreStats&, const ExploreStats&) = default;
};

/// Telemetry an exploration optionally emits (ExploreOptions::telemetry).
/// Plain data, deliberately obs-agnostic: obs/instrument.hpp knows how to
/// publish it into a metrics registry; a null pointer costs the engine one
/// branch per tree node (the zero-overhead-when-disabled contract).
struct ExploreTelemetry {
  std::uint64_t visits = 0;  ///< tree nodes materialized (budget units)
  std::uint64_t clones = 0;  ///< Network::clone forks taken
  double seconds = 0;        ///< wall time of the exploration
  /// Subtree roots handed to the pool by the parallel explorer (its queue
  /// depth when the breadth-first expansion stopped); 0 for sequential runs.
  std::uint64_t frontier_subtrees = 0;

  double schedules_per_second(const ExploreStats& stats) const {
    return seconds > 0 ? static_cast<double>(stats.leaves) / seconds : 0.0;
  }

  void merge(const ExploreTelemetry& other) {
    visits += other.visits;
    clones += other.clones;
    // seconds/frontier are owned by the coordinating caller, not summed:
    // per-worker wall clocks overlap.
  }
};

struct ExploreOptions {
  /// Caps the number of tree nodes visited; exceeding it marks subtrees
  /// truncated.
  std::uint64_t budget = 1'000'000;
  /// Optional telemetry sink; null (the default) keeps the engine on the
  /// uninstrumented fast path.
  ExploreTelemetry* telemetry = nullptr;
};

namespace detail {

/// Fork-based DFS from the state held in `net` (which must already be
/// started). Consumes `net`: the last branch at every level advances it in
/// place. `depth` is the number of deliveries that produced `net`.
inline void snapshot_explore(
    PulseNetwork& net, std::uint64_t depth, std::uint64_t& budget,
    ExploreStats& stats, const std::function<void(PulseNetwork&)>& on_leaf,
    ExploreTelemetry* telemetry = nullptr) {
  if (budget == 0) {
    ++stats.truncated;
    return;
  }
  --budget;
  if (telemetry) ++telemetry->visits;
  const auto pending = net.pending_channels();
  if (pending.empty()) {
    ++stats.leaves;
    stats.max_depth = std::max(stats.max_depth, depth);
    on_leaf(net);
    return;
  }
  for (std::size_t i = 0; i + 1 < pending.size(); ++i) {
    auto fork = net.clone();
    if (telemetry) ++telemetry->clones;
    fork.deliver_step(pending[i]);
    snapshot_explore(fork, depth + 1, budget, stats, on_leaf, telemetry);
    if (budget == 0) return;
  }
  net.deliver_step(pending.back());
  snapshot_explore(net, depth + 1, budget, stats, on_leaf, telemetry);
}

}  // namespace detail

/// Enumerates every schedule of the network produced by `build` and calls
/// `on_leaf` on each quiescent terminal state.
inline ExploreStats explore_all_schedules(
    const std::function<PulseNetwork()>& build,
    const std::function<void(PulseNetwork&)>& on_leaf,
    const ExploreOptions& options) {
  COLEX_EXPECTS(options.budget > 0);
  ExploreStats stats;
  std::uint64_t budget = options.budget;
  const auto wall_start = std::chrono::steady_clock::now();
  auto net = build();
  net.start_all();
  detail::snapshot_explore(net, 0, budget, stats, on_leaf, options.telemetry);
  if (options.telemetry) {
    options.telemetry->seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
  }
  return stats;
}

/// Budget-only overload, the drop-in signature the test and bench suite
/// grew up with.
inline ExploreStats explore_all_schedules(
    const std::function<PulseNetwork()>& build,
    const std::function<void(PulseNetwork&)>& on_leaf,
    std::uint64_t budget = 1'000'000) {
  ExploreOptions options;
  options.budget = budget;
  return explore_all_schedules(build, on_leaf, options);
}

}  // namespace colex::sim
