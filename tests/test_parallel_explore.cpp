// Determinism of the parallel explorer (sim/parallel.hpp): stats and
// aggregated leaf outcomes must be a pure function of the configuration,
// independent of the worker count — 1, 2, and 8 workers bit-identical.
// ci.sh runs this test under TSan, which checks the other half of the
// contract: no data races while the subtrees run concurrently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "co/alg2.hpp"
#include "co/election.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "sim/explore.hpp"
#include "sim/network.hpp"
#include "sim/parallel.hpp"

namespace colex::co {
namespace {

using Leaves = std::vector<std::string>;

std::function<sim::PulseNetwork()> alg2_ring(
    const std::vector<std::uint64_t>& ids) {
  return [ids] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<Alg2Terminating>(ids[v]));
    }
    return net;
  };
}

std::string leaf_signature(sim::PulseNetwork& net) {
  std::ostringstream os;
  os << net.total_sent();
  for (sim::NodeId v = 0; v < net.size(); ++v) {
    os << '|' << to_string(net.automaton_as<Alg2Terminating>(v).role());
  }
  return os.str();
}

// NOTE: gtest assertions are not thread-safe, so the on_leaf callback only
// appends to its own Acc; all assertions happen on the main thread.
struct ParallelRun {
  sim::ExploreStats stats;
  Leaves leaves;
};

ParallelRun run_parallel(const std::function<sim::PulseNetwork()>& build,
                         std::uint64_t budget, std::size_t workers,
                         std::size_t min_subtrees) {
  ParallelRun run;
  sim::ParallelExploreOptions options;
  options.budget = budget;
  options.workers = workers;
  options.min_subtrees = min_subtrees;
  run.stats = sim::parallel_explore_all_schedules<Leaves>(
      build,
      [](Leaves& acc, sim::PulseNetwork& net) {
        acc.push_back(leaf_signature(net));
      },
      [](Leaves& into, const Leaves& from) {
        into.insert(into.end(), from.begin(), from.end());
      },
      run.leaves, options);
  return run;
}

TEST(ParallelExplore, WorkerCountDoesNotChangeTheResult) {
  const auto build = alg2_ring({2, 3, 1});
  const auto reference = run_parallel(build, 4'000'000, 1, 16);
  EXPECT_TRUE(reference.stats.exhaustive());
  EXPECT_GT(reference.stats.leaves, 1u);
  for (const std::size_t workers : {2u, 8u}) {
    const auto run = run_parallel(build, 4'000'000, workers, 16);
    EXPECT_EQ(run.stats, reference.stats) << workers << " workers";
    EXPECT_EQ(run.leaves, reference.leaves) << workers << " workers";
  }
}

TEST(ParallelExplore, TruncatedRunsAreStillWorkerCountDeterministic) {
  // Budget far below the tree size: the per-subtree quota split must make
  // even the truncation pattern independent of the worker count.
  const auto build = alg2_ring({2, 3, 1});
  const auto reference = run_parallel(build, 2'000, 1, 16);
  EXPECT_GT(reference.stats.truncated, 0u);
  for (const std::size_t workers : {2u, 8u}) {
    const auto run = run_parallel(build, 2'000, workers, 16);
    EXPECT_EQ(run.stats, reference.stats) << workers << " workers";
    EXPECT_EQ(run.leaves, reference.leaves) << workers << " workers";
  }
}

TEST(ParallelExplore, MatchesTheSequentialEngineLeafForLeaf) {
  // Leaf *order* differs (BFS prefix + per-subtree DFS vs pure DFS), but an
  // exhaustive run must visit exactly the same set of terminal states.
  const auto build = alg2_ring({1, 2});
  Leaves sequential;
  const auto seq_stats = sim::explore_all_schedules(
      build,
      [&sequential](sim::PulseNetwork& net) {
        sequential.push_back(leaf_signature(net));
      },
      2'000'000);
  ASSERT_TRUE(seq_stats.exhaustive());

  auto parallel = run_parallel(build, 2'000'000, 8, 16);
  ASSERT_TRUE(parallel.stats.exhaustive());
  EXPECT_EQ(parallel.stats.leaves, seq_stats.leaves);
  EXPECT_EQ(parallel.stats.max_depth, seq_stats.max_depth);

  std::sort(sequential.begin(), sequential.end());
  std::sort(parallel.leaves.begin(), parallel.leaves.end());
  EXPECT_EQ(parallel.leaves, sequential);
}

TEST(ParallelExplore, SmallTreeFitsEntirelyIntoTheFrontierExpansion) {
  // n = 1 has a single chain of forced deliveries: the BFS expansion never
  // reaches min_subtrees and must handle the tree draining on its own.
  const auto build = alg2_ring({3});
  const auto run = run_parallel(build, 100'000, 8, 64);
  EXPECT_TRUE(run.stats.exhaustive());
  EXPECT_EQ(run.stats.leaves, 1u);
  ASSERT_EQ(run.leaves.size(), 1u);
}

TEST(ParallelExplore, TelemetryCountsAreWorkerCountDeterministic) {
  const auto build = alg2_ring({2, 3, 1});
  sim::ExploreTelemetry reference;
  std::vector<sim::WorkerStats> ref_workers;
  {
    sim::ParallelExploreOptions options;
    options.budget = 4'000'000;
    options.workers = 1;
    options.min_subtrees = 16;
    options.telemetry = &reference;
    options.worker_stats = &ref_workers;
    Leaves leaves;
    const auto stats = sim::parallel_explore_all_schedules<Leaves>(
        build,
        [](Leaves& acc, sim::PulseNetwork& net) {
          acc.push_back(leaf_signature(net));
        },
        [](Leaves& into, const Leaves& from) {
          into.insert(into.end(), from.begin(), from.end());
        },
        leaves, options);
    ASSERT_TRUE(stats.exhaustive());
    EXPECT_GT(reference.visits, 0u);
    EXPECT_GT(reference.clones, 0u);
    EXPECT_GT(reference.seconds, 0.0);
    EXPECT_GT(reference.frontier_subtrees, 0u);
    // Every frontier subtree becomes exactly one pool task.
    std::uint64_t tasks = 0;
    for (const auto& w : ref_workers) tasks += w.tasks;
    EXPECT_EQ(tasks, reference.frontier_subtrees);
    // Published as metrics: one task counter per worker slot.
    obs::Registry published;
    obs::publish_worker_stats(published, "workers", ref_workers);
    EXPECT_EQ(published.gauge("workers.count").value(), 1.0);
    EXPECT_EQ(published.counter("workers.0.tasks").value(), tasks);
  }
  for (const std::size_t workers : {2u, 8u}) {
    sim::ExploreTelemetry telemetry;
    sim::ParallelExploreOptions options;
    options.budget = 4'000'000;
    options.workers = workers;
    options.min_subtrees = 16;
    options.telemetry = &telemetry;
    Leaves leaves;
    (void)sim::parallel_explore_all_schedules<Leaves>(
        build,
        [](Leaves& acc, sim::PulseNetwork& net) {
          acc.push_back(leaf_signature(net));
        },
        [](Leaves& into, const Leaves& from) {
          into.insert(into.end(), from.begin(), from.end());
        },
        leaves, options);
    // Wall time varies; the structural counts must not.
    EXPECT_EQ(telemetry.visits, reference.visits) << workers << " workers";
    EXPECT_EQ(telemetry.clones, reference.clones) << workers << " workers";
    EXPECT_EQ(telemetry.frontier_subtrees, reference.frontier_subtrees)
        << workers << " workers";
  }
}

// The metrics layer's concurrency contract, exercised under TSan by ci.sh:
// one Registry per subtree, written only by the worker that owns it, merged
// on the main thread after the join.
TEST(ParallelExplore, PerSubtreeRegistriesMergeDeterministically) {
  const auto build = alg2_ring({2, 3, 1});
  auto run_with = [&build](std::size_t workers) {
    obs::Registry merged;
    sim::ParallelExploreOptions options;
    options.budget = 4'000'000;
    options.workers = workers;
    options.min_subtrees = 16;
    const auto stats = sim::parallel_explore_all_schedules<obs::Registry>(
        build,
        [](obs::Registry& acc, sim::PulseNetwork& net) {
          acc.counter("leaves").inc();
          acc.gauge("max_pulses")
              .track_max(static_cast<double>(net.total_sent()));
          acc.histogram("pulses", {10.0, 20.0, 40.0})
              .record(static_cast<double>(net.total_sent()));
        },
        [](obs::Registry& into, const obs::Registry& from) {
          into.merge(from);
        },
        merged, options);
    EXPECT_TRUE(stats.exhaustive());
    EXPECT_EQ(merged.counter("leaves").value(), stats.leaves);
    return merged.to_json();
  };
  const std::string reference = run_with(1);
  EXPECT_EQ(run_with(2), reference);
  EXPECT_EQ(run_with(8), reference);
}

TEST(ParallelForInstrumented, CoversEveryIndexAndAccountsEveryTask) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    std::vector<int> hits(1000, 0);
    const auto stats = sim::parallel_for_instrumented(
        hits.size(), workers,
        [&hits](std::size_t, std::size_t task) { ++hits[task]; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << workers << " workers";
    EXPECT_EQ(stats.size(), std::min(workers, hits.size()));
    std::uint64_t tasks = 0;
    for (const auto& w : stats) tasks += w.tasks;
    EXPECT_EQ(tasks, hits.size()) << workers << " workers";
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    std::vector<int> hits(1000, 0);
    sim::parallel_for(hits.size(), workers,
                      [&hits](std::size_t i) { ++hits[i]; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << workers << " workers";
  }
}

}  // namespace
}  // namespace colex::co
