// Exhaustive schedule exploration: for small rings, enumerate EVERY
// adversarial delivery order (the full tree of scheduler choices) and
// verify the theorems hold on every leaf — model checking, not sampling.
//
// The explorer forks live network snapshots at each branch point
// (Network::clone); the reference engine in qa/replay_explore.hpp replays
// each choice prefix from scratch through ReplayScheduler instead
// (test_explore_engines.cpp proves the two identical). A leaf is a
// quiescent execution; at every leaf the election must be correct and the
// pulse count exactly the paper's formula.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "sim/explore.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace colex::co {
namespace {

TEST(ExhaustiveSchedules, Alg2TwoNodeRingEverySchedule) {
  const std::vector<std::uint64_t> ids{1, 2};
  const auto build = [&ids] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<Alg2Terminating>(ids[v]));
    }
    return net;
  };
  const auto validate = [&ids](sim::PulseNetwork& net) {
    ASSERT_EQ(net.total_sent(), theorem1_pulses(2, 2));
    std::size_t leaders = 0;
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      const auto& alg = net.automaton_as<Alg2Terminating>(v);
      ASSERT_TRUE(alg.terminated());
      if (alg.role() == Role::leader) {
        ++leaders;
        ASSERT_EQ(v, 1u);
      }
    }
    ASSERT_EQ(leaders, 1u);
  };
  const auto stats = sim::explore_all_schedules(build, validate, 2'000'000);
  EXPECT_EQ(stats.truncated, 0u) << "exploration must be exhaustive";
  EXPECT_GT(stats.leaves, 1u);  // genuinely multiple schedules exist
  EXPECT_EQ(stats.max_depth, theorem1_pulses(2, 2));
  std::cout << "alg2 n=2 {1,2}: " << stats.leaves
            << " distinct schedules, all correct\n";
}

TEST(ExhaustiveSchedules, Alg2TwoNodeSparseIdsEverySchedule) {
  const std::vector<std::uint64_t> ids{4, 2};
  const auto build = [&ids] {
    auto net = sim::PulseNetwork::ring(2);
    net.set_automaton(0, std::make_unique<Alg2Terminating>(ids[0]));
    net.set_automaton(1, std::make_unique<Alg2Terminating>(ids[1]));
    return net;
  };
  const auto validate = [](sim::PulseNetwork& net) {
    ASSERT_EQ(net.total_sent(), theorem1_pulses(2, 4));
    ASSERT_EQ(net.automaton_as<Alg2Terminating>(0).role(), Role::leader);
    ASSERT_EQ(net.automaton_as<Alg2Terminating>(1).role(),
              Role::non_leader);
  };
  const auto stats = sim::explore_all_schedules(build, validate, 4'000'000);
  EXPECT_EQ(stats.truncated, 0u);
  std::cout << "alg2 n=2 {4,2}: " << stats.leaves
            << " distinct schedules, all correct\n";
}

TEST(ExhaustiveSchedules, Alg1ThreeNodeRingEverySchedule) {
  const std::vector<std::uint64_t> ids{2, 3, 1};
  const auto build = [&ids] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<Alg1Stabilizing>(ids[v]));
    }
    return net;
  };
  const auto validate = [&ids](sim::PulseNetwork& net) {
    ASSERT_EQ(net.total_sent(), 3u * 3u);
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      const auto& alg = net.automaton_as<Alg1Stabilizing>(v);
      ASSERT_EQ(alg.role() == Role::leader, ids[v] == 3) << v;
      ASSERT_EQ(alg.counters().rho_cw, 3u);
    }
  };
  const auto stats = sim::explore_all_schedules(build, validate, 2'000'000);
  EXPECT_EQ(stats.truncated, 0u);
  EXPECT_GT(stats.leaves, 1u);
  std::cout << "alg1 n=3 {2,3,1}: " << stats.leaves
            << " distinct schedules, all correct\n";
}

TEST(ExhaustiveSchedules, Alg3ScrambledTwoNodeEverySchedule) {
  const std::vector<std::uint64_t> ids{2, 3};
  const std::vector<bool> flips{true, false};
  const auto build = [&] {
    auto net = sim::PulseNetwork::ring(2, flips);
    for (sim::NodeId v = 0; v < 2; ++v) {
      Alg3NonOriented::Options options;  // improved scheme
      net.set_automaton(v,
                        std::make_unique<Alg3NonOriented>(ids[v], options));
    }
    return net;
  };
  const auto validate = [&](sim::PulseNetwork& net) {
    ASSERT_EQ(net.total_sent(), theorem1_pulses(2, 3));
    ASSERT_EQ(net.automaton_as<Alg3NonOriented>(0).role(),
              Role::non_leader);
    ASSERT_EQ(net.automaton_as<Alg3NonOriented>(1).role(), Role::leader);
    // Orientation consistent: exactly one of the two declares the
    // physical CW port as CW at node 0 iff node 1 does too.
    const bool node0_cw =
        net.automaton_as<Alg3NonOriented>(0).cw_port() ==
        physical_cw_port(flips, 0);
    const bool node1_cw =
        net.automaton_as<Alg3NonOriented>(1).cw_port() ==
        physical_cw_port(flips, 1);
    ASSERT_EQ(node0_cw, node1_cw);
  };
  const auto stats = sim::explore_all_schedules(build, validate, 4'000'000);
  EXPECT_EQ(stats.truncated, 0u);
  std::cout << "alg3 n=2 scrambled {2,3}: " << stats.leaves
            << " distinct schedules, all correct\n";
}

TEST(ExhaustiveSchedules, SingleNodeHasUniqueSchedule) {
  // n = 1: at most one pulse is in flight at a time for Algorithm 2, so
  // the adversary has no real choices; the tree is a single path.
  const auto build = [] {
    auto net = sim::PulseNetwork::ring(1);
    net.set_automaton(0, std::make_unique<Alg2Terminating>(3));
    return net;
  };
  const auto validate = [](sim::PulseNetwork& net) {
    ASSERT_EQ(net.total_sent(), 7u);
    ASSERT_EQ(net.automaton_as<Alg2Terminating>(0).role(), Role::leader);
  };
  const auto stats = sim::explore_all_schedules(build, validate, 100'000);
  EXPECT_EQ(stats.truncated, 0u);
  EXPECT_EQ(stats.leaves, 1u);
}

}  // namespace
}  // namespace colex::co
