// Tests for the executor's automaton host (coro/host.hpp): the
// *same automaton objects* the discrete simulator runs — event-driven
// Algorithm 2 and 3, the replication adapter, and the full Corollary 5
// composition — on the coroutine executor with identical results, at one
// worker and at two (the TSan stage runs the two-worker half).
#include <gtest/gtest.h>

#include <memory>

#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "co/replicated.hpp"
#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "coro/host.hpp"
#include "util/contracts.hpp"

namespace colex::coro {
namespace {

class CoroHost : public ::testing::TestWithParam<std::size_t> {
 protected:
  HostRunResult host(std::size_t n, const std::vector<bool>& flips,
                     const HostFactory& factory,
                     std::uint64_t timeout_ms = 30'000) const {
    return run_automata_on_coro(n, flips, factory,
                                {GetParam(), timeout_ms, nullptr});
  }
};

TEST_P(CoroHost, Alg2MatchesSimulatorExactly) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1, 7};
  const auto result = host(
      ids.size(), {},
      [&ids](sim::NodeId v) {
        return std::make_unique<co::Alg2Terminating>(ids[v]);
      });
  ASSERT_TRUE(result.completed) << result.stall_dump;
  ASSERT_TRUE(result.all_terminated);
  EXPECT_EQ(result.pulses, co::theorem1_pulses(ids.size(), 11));
  std::size_t leaders = 0;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& alg =
        dynamic_cast<const co::Alg2Terminating&>(*result.automata[v]);
    if (alg.role() == co::Role::leader) {
      ++leaders;
      EXPECT_EQ(v, 1u);
    }
    EXPECT_EQ(alg.counters().rho_cw, 11u);
    EXPECT_EQ(alg.counters().rho_ccw, 12u);
  }
  EXPECT_EQ(leaders, 1u);
}

TEST_P(CoroHost, Alg3OnScrambledRing) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9};
  const std::vector<bool> flips{true, false, true, true};
  const auto result = host(
      ids.size(), flips,
      [&ids](sim::NodeId v) {
        co::Alg3NonOriented::Options alg_options;
        return std::make_unique<co::Alg3NonOriented>(ids[v], alg_options);
      });
  ASSERT_TRUE(result.completed) << result.stall_dump;
  EXPECT_FALSE(result.all_terminated);  // stabilizing: quiescence stopped it
  EXPECT_EQ(result.pulses, co::theorem1_pulses(4, 11));
  std::size_t leaders = 0;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& alg =
        dynamic_cast<const co::Alg3NonOriented&>(*result.automata[v]);
    if (alg.role() == co::Role::leader) {
      ++leaders;
      EXPECT_EQ(v, 1u);
    }
  }
  EXPECT_EQ(leaders, 1u);
}

TEST_P(CoroHost, ReplicatedAdapter) {
  const std::vector<std::uint64_t> ids{4, 9, 2, 6};
  const unsigned r = 2;
  const auto result = host(
      ids.size(), {},
      [&ids, r](sim::NodeId v) {
        return std::make_unique<co::ReplicatedAdapter>(
            std::make_unique<co::Alg2Terminating>(ids[v]), r);
      });
  ASSERT_TRUE(result.completed) << result.stall_dump;
  ASSERT_TRUE(result.all_terminated);
  EXPECT_EQ(result.pulses, (r + 1) * co::theorem1_pulses(4, 9));
  std::size_t leaders = 0;
  for (const auto& automaton : result.automata) {
    const auto& adapter =
        dynamic_cast<const co::ReplicatedAdapter&>(*automaton);
    if (adapter.inner_as<co::Alg2Terminating>().role() == co::Role::leader) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1u);
}

TEST_P(CoroHost, Corollary5Composition) {
  // The full stack — Algorithm 2, then the token-bus survey, then a
  // gather-all computation — on the executor's worker threads.
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1};
  const std::vector<std::uint64_t> inputs{10, 20, 30, 40, 50};
  const auto result = host(
      ids.size(), {},
      [&](sim::NodeId v) {
        return std::make_unique<colib::ComposedNode>(
            ids[v], std::make_unique<colib::GatherAllApp>(inputs[v]));
      });
  ASSERT_TRUE(result.completed) << result.stall_dump;
  ASSERT_TRUE(result.all_terminated);
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& composed =
        dynamic_cast<const colib::ComposedNode&>(*result.automata[v]);
    ASSERT_NE(composed.bus(), nullptr) << v;
    const auto& app =
        dynamic_cast<const colib::GatherAllApp&>(composed.bus()->app());
    ASSERT_TRUE(app.complete()) << v;
    EXPECT_EQ(app.sum(), 150u);
    EXPECT_EQ(app.max_value(), 50u);
    EXPECT_EQ(app.ring_size(), ids.size());
    // Bus offsets are relative to the leader (node 1, ID 11).
    EXPECT_EQ(app.offset(), (v + ids.size() - 1) % ids.size());
  }
}

TEST_P(CoroHost, RepeatedCompositionRunsStayExact) {
  const std::vector<std::uint64_t> ids{4, 9, 2};
  std::uint64_t reference = 0;
  for (int rep = 0; rep < 6; ++rep) {
    const auto result = host(
        ids.size(), {},
        [&ids](sim::NodeId v) {
          return std::make_unique<colib::ComposedNode>(
              ids[v], std::make_unique<colib::GatherAllApp>(v + 1));
        });
    ASSERT_TRUE(result.all_terminated) << rep;
    if (rep == 0) {
      reference = result.pulses;
    } else {
      // The bus is fully serialized, so even the *total* pulse count is
      // identical across schedules.
      EXPECT_EQ(result.pulses, reference) << rep;
    }
  }
}

TEST_P(CoroHost, SingleNode) {
  const auto result = host(1, {}, [](sim::NodeId) {
    return std::make_unique<co::Alg2Terminating>(7);
  });
  ASSERT_TRUE(result.all_terminated);
  EXPECT_EQ(result.pulses, 15u);
}

TEST_P(CoroHost, RejectsNullFactoryResult) {
  EXPECT_THROW(host(2, {},
                    [](sim::NodeId) {
                      return std::unique_ptr<sim::PulseAutomaton>{};
                    }),
               util::ContractViolation);
}

/// Relays every pulse forever: the fabric never goes quiescent, so the
/// watchdog must end the run.
class EternalRelay final : public sim::PulseAutomaton {
 public:
  void start(sim::PulseContext& ctx) override { ctx.send(sim::Port::p1); }
  void react(sim::PulseContext& ctx) override {
    for (const sim::Port p : {sim::Port::p0, sim::Port::p1}) {
      while (ctx.recv_pulse(p)) ctx.send(sim::opposite(p));
    }
  }
  std::unique_ptr<sim::PulseAutomaton> clone() const override {
    return std::make_unique<EternalRelay>(*this);
  }
};

TEST_P(CoroHost, TimeoutOnNonQuiescentProtocol) {
  const auto result = host(
      2, {}, [](sim::NodeId) { return std::make_unique<EternalRelay>(); },
      /*timeout_ms=*/300);
  EXPECT_FALSE(result.completed);  // timed out, not quiescent
  EXPECT_FALSE(result.all_terminated);
  EXPECT_GT(result.pulses, 2u);  // it really was circulating
  EXPECT_NE(result.stall_dump.find("coro-executor state"), std::string::npos);
}

/// Node 0 sends one pulse out of its p0 (it lands on node 1's p1) and is
/// done. Node 1 only peeks at p1 through queued() and polls p0 empty: the
/// peek must count as polling p1, or the pulse would wait there forever
/// while node 1 sleeps on p0 alone.
class PeekThenTake final : public sim::PulseAutomaton {
 public:
  explicit PeekThenTake(bool sender) : sender_(sender) {}
  void start(sim::PulseContext& ctx) override {
    if (sender_) ctx.send(sim::Port::p0);
  }
  void react(sim::PulseContext& ctx) override {
    if (sender_ || done_) return;
    if (ctx.queued(sim::Port::p1) > 0) {
      done_ = ctx.recv_pulse(sim::Port::p1);
      return;
    }
    ctx.recv_pulse(sim::Port::p0);
  }
  bool terminated() const override { return sender_ || done_; }
  std::unique_ptr<sim::PulseAutomaton> clone() const override {
    return std::make_unique<PeekThenTake>(*this);
  }

 private:
  bool sender_;
  bool done_ = false;
};

TEST_P(CoroHost, PeekedPortStillWakesTheNode) {
  const auto result = host(
      2, {},
      [](sim::NodeId v) { return std::make_unique<PeekThenTake>(v == 0); },
      /*timeout_ms=*/5'000);
  EXPECT_TRUE(result.completed) << result.stall_dump;
  EXPECT_TRUE(result.all_terminated);
  EXPECT_EQ(result.pulses, 1u);
}

INSTANTIATE_TEST_SUITE_P(Workers, CoroHost, ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "W" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace colex::coro
