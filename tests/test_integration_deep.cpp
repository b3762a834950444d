// Deep integration tests that cross module boundaries:
//  * the §1.1 replication adapter wrapped around the ENTIRE Corollary 5
//    stack (election + bus + application) — the transformation must be
//    transparent to arbitrary inner protocols;
//  * the conservation audit running over the composed stack;
//  * explorer budget/truncation semantics.
#include <gtest/gtest.h>

#include <memory>

#include "colex.hpp"
#include "helpers.hpp"

namespace colex {
namespace {

TEST(DeepIntegration, ReplicatedCorollary5StackIsTransparent) {
  // Wrap ComposedNode (Algorithm 2 -> token bus -> gather-all) in the
  // r-copies adapter: the logical execution must be identical, at exactly
  // (r+1) times the pulse cost.
  const std::vector<std::uint64_t> ids{6, 11, 3, 9};
  const std::vector<std::uint64_t> inputs{10, 20, 30, 40};

  // Reference: unreplicated composed run.
  sim::GlobalFifoScheduler ref_sched;
  const auto reference = colib::run_composed(
      ids,
      [&inputs](sim::NodeId v) {
        return std::make_unique<colib::GatherAllApp>(inputs[v]);
      },
      ref_sched);
  ASSERT_TRUE(reference.all_terminated);

  for (const unsigned r : {1u, 2u}) {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(
          v, std::make_unique<co::ReplicatedAdapter>(
                 std::make_unique<colib::ComposedNode>(
                     ids[v],
                     std::make_unique<colib::GatherAllApp>(inputs[v])),
                 r));
    }
    sim::RandomScheduler sched(r);
    const auto report = net.run(sched);
    ASSERT_TRUE(report.quiescent) << "r=" << r;
    ASSERT_TRUE(report.all_terminated) << "r=" << r;
    EXPECT_EQ(report.sent, (r + 1) * reference.total_pulses) << "r=" << r;
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      const auto& adapter = net.automaton_as<co::ReplicatedAdapter>(v);
      const auto& composed =
          dynamic_cast<const colib::ComposedNode&>(adapter.inner());
      ASSERT_NE(composed.bus(), nullptr) << "r=" << r << " v=" << v;
      const auto& app =
          dynamic_cast<const colib::GatherAllApp&>(composed.bus()->app());
      ASSERT_TRUE(app.complete()) << "r=" << r << " v=" << v;
      EXPECT_EQ(app.sum(), 100u);
      EXPECT_EQ(app.ring_size(), ids.size());
    }
  }
}

TEST(DeepIntegration, ConservationAuditOverComposedStack) {
  const std::vector<std::uint64_t> ids{4, 9, 2, 7, 5};
  auto net = sim::PulseNetwork::ring(ids.size());
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<colib::ComposedNode>(
                             ids[v], std::make_unique<colib::GatherAllApp>(
                                         v * 3 + 1)));
  }
  sim::TraceRecorder trace;
  sim::RunOptions opts;
  trace.attach(net, opts);
  sim::RandomScheduler sched(17);
  const auto report = net.run(sched, opts);
  ASSERT_TRUE(report.all_terminated);
  EXPECT_EQ(trace.sends(), report.sent);
  EXPECT_EQ(trace.audit(sim::ring_wiring(ids.size())), "");
}

TEST(DeepIntegration, ExplorerRespectsBudget) {
  // A tiny budget must truncate without crashing and report it.
  const auto build = [] {
    auto net = sim::PulseNetwork::ring(3);
    for (sim::NodeId v = 0; v < 3; ++v) {
      net.set_automaton(v, std::make_unique<co::Alg1Stabilizing>(v + 1));
    }
    return net;
  };
  std::uint64_t leaves_seen = 0;
  const auto stats = sim::explore_all_schedules(
      build, [&leaves_seen](sim::PulseNetwork&) { ++leaves_seen; }, 5);
  EXPECT_FALSE(stats.exhaustive());
  EXPECT_GT(stats.truncated, 0u);
  EXPECT_EQ(stats.leaves, leaves_seen);
}

TEST(DeepIntegration, ExplorerRejectsZeroBudget) {
  EXPECT_THROW(sim::explore_all_schedules(
                   [] { return sim::PulseNetwork::ring(1); },
                   [](sim::PulseNetwork&) {}, 0),
               util::ContractViolation);
}

TEST(DeepIntegration, ExplorerFindsAllSchedulesOfReplicatedRun) {
  // Model-check the replication adapter itself: every schedule of a 1-node
  // replicated election (r = 1) is correct at exactly twice the cost.
  const auto build = [] {
    auto net = sim::PulseNetwork::ring(1);
    net.set_automaton(0, std::make_unique<co::ReplicatedAdapter>(
                             std::make_unique<co::Alg2Terminating>(2), 1));
    return net;
  };
  std::uint64_t violations = 0;
  const auto stats = sim::explore_all_schedules(
      build,
      [&violations](sim::PulseNetwork& net) {
        const auto& adapter = net.automaton_as<co::ReplicatedAdapter>(0);
        if (net.total_sent() != 2 * co::theorem1_pulses(1, 2) ||
            adapter.inner_as<co::Alg2Terminating>().role() !=
                co::Role::leader) {
          ++violations;
        }
      },
      500'000);
  EXPECT_TRUE(stats.exhaustive());
  EXPECT_EQ(violations, 0u);
  EXPECT_GE(stats.leaves, 1u);
}

TEST(DeepIntegration, ExecutorReplicatedComposedStack) {
  // The triple stack on two worker threads: replication adapter over
  // composition over election over the executor's channels.
  const std::vector<std::uint64_t> ids{4, 9, 2};
  const auto result = coro::run_automata_on_coro(
      ids.size(), {},
      [&ids](sim::NodeId v) {
        return std::make_unique<co::ReplicatedAdapter>(
            std::make_unique<colib::ComposedNode>(
                ids[v], std::make_unique<colib::BroadcastApp>(321)),
            1);
      },
      {2, 30'000, nullptr});
  ASSERT_TRUE(result.completed) << result.stall_dump;
  ASSERT_TRUE(result.all_terminated);
  for (const auto& automaton : result.automata) {
    const auto& adapter =
        dynamic_cast<const co::ReplicatedAdapter&>(*automaton);
    const auto& composed =
        dynamic_cast<const colib::ComposedNode&>(adapter.inner());
    const auto& app =
        dynamic_cast<const colib::BroadcastApp&>(composed.bus()->app());
    ASSERT_TRUE(app.received().has_value());
    EXPECT_EQ(*app.received(), 321u);
  }
}

}  // namespace
}  // namespace colex
