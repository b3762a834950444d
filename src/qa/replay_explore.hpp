// The reference schedule explorer: the tree sim::explore_all_schedules
// walks (branch on every pending channel in ascending channel order; a leaf
// is a quiescent execution), materialized without forking. Every tree node
// re-runs its schedule prefix on a fresh network from `build` under
// sim::ReplayScheduler, so a node costs O(depth) deliveries and no automaton
// ever needs clone().
//
// Both engines visit the same states in the same order and count a tree
// node as one budget unit, so they must return identical ExploreStats and
// identical per-leaf outcome sequences, truncated or not. That agreement is
// the check on every clone() the snapshot engine relies on:
// tests/test_explore_engines.cpp and qa::check_engine_agreement assert it,
// and bench E12 times the snapshot engine against this one.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/explore.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/contracts.hpp"

namespace colex::qa {

/// Replay-engine twin of sim::explore_all_schedules: same tree, same budget
/// unit, same telemetry fields (`clones` stays 0).
inline sim::ExploreStats replay_explore_all_schedules(
    const std::function<sim::PulseNetwork()>& build,
    const std::function<void(sim::PulseNetwork&)>& on_leaf,
    const sim::ExploreOptions& options) {
  COLEX_EXPECTS(options.budget > 0);
  sim::ExploreStats stats;
  std::uint64_t budget = options.budget;
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::size_t> prefix;
  std::function<void()> recurse = [&]() {
    if (budget == 0) {
      ++stats.truncated;
      return;
    }
    --budget;
    if (options.telemetry) ++options.telemetry->visits;
    auto net = build();
    sim::ReplayScheduler replay(prefix);
    sim::RunOptions opts;
    opts.max_events = prefix.size();
    net.run(replay, opts);
    COLEX_ASSERT(replay.divergences() == 0);

    std::vector<std::size_t> pending;
    for (std::size_t c = 0; c < net.channel_count(); ++c) {
      if (net.channel_pending(c) > 0) pending.push_back(c);
    }
    if (pending.empty()) {
      ++stats.leaves;
      stats.max_depth = std::max(stats.max_depth,
                                 static_cast<std::uint64_t>(prefix.size()));
      on_leaf(net);
      return;
    }
    for (const std::size_t c : pending) {
      prefix.push_back(c);
      recurse();
      prefix.pop_back();
      if (budget == 0) return;
    }
  };
  recurse();
  if (options.telemetry) {
    options.telemetry->seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
  }
  return stats;
}

}  // namespace colex::qa
