// Tests for the content-oblivious token bus (the ring-specialized [8]
// substrate) and its composition with Algorithm 2 (Corollary 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "helpers.hpp"
#include "sim/network.hpp"

namespace colex::colib {
namespace {

TEST(Bits, EncodeDecodeRoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 2ull, 5ull, 255ull, 1ull << 40,
                          ~0ull}) {
    EXPECT_EQ(decode_u64(encode_u64(v)), v);
  }
  EXPECT_TRUE(encode_u64(0).empty());
  EXPECT_EQ(encode_u64(5).size(), 3u);
}

TEST(Bits, DecodeSubrange) {
  Bits b{true, false, true, true};  // LSB-first: value 13
  EXPECT_EQ(decode_u64(b), 13u);
  EXPECT_EQ(decode_u64(b, 1), 6u);     // "011" -> 6
  EXPECT_EQ(decode_u64(b, 1, 2), 2u);  // "01" -> 2
}

/// Builds a bus-only ring (no election phase) with the root at `root`.
sim::PulseNetwork bus_ring(const std::vector<std::uint64_t>& inputs,
                           sim::NodeId root) {
  auto net = sim::PulseNetwork::ring(inputs.size());
  for (sim::NodeId v = 0; v < inputs.size(); ++v) {
    net.set_automaton(v, std::make_unique<BusNode>(
                             std::make_unique<GatherAllApp>(inputs[v]),
                             v == root));
  }
  return net;
}

const GatherAllApp& gather_at(sim::PulseNetwork& net, sim::NodeId v) {
  return dynamic_cast<const GatherAllApp&>(
      net.automaton_as<BusNode>(v).app());
}

TEST(Bus, SurveyTeachesSizeAndOffsets) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    for (sim::NodeId root = 0; root < n; ++root) {
      std::vector<std::uint64_t> inputs(n, 1);
      auto net = bus_ring(inputs, root);
      sim::GlobalFifoScheduler sched;
      const auto report = net.run(sched);
      ASSERT_TRUE(report.quiescent) << "n=" << n << " root=" << root;
      ASSERT_TRUE(report.all_terminated) << "n=" << n << " root=" << root;
      EXPECT_EQ(report.deliveries_to_terminated, 0u);
      for (sim::NodeId v = 0; v < n; ++v) {
        const auto& app = gather_at(net, v);
        EXPECT_EQ(app.ring_size(), n);
        EXPECT_EQ(app.offset(), (v + n - root) % n)
            << "n=" << n << " root=" << root << " v=" << v;
      }
    }
  }
}

TEST(Bus, GatherAllDeliversEveryInputToEveryNode) {
  const std::vector<std::uint64_t> inputs{7, 0, 19, 3, 42};
  auto net = bus_ring(inputs, 2);
  sim::RandomScheduler sched(5);
  const auto report = net.run(sched);
  ASSERT_TRUE(report.quiescent);
  ASSERT_TRUE(report.all_terminated);
  for (sim::NodeId v = 0; v < inputs.size(); ++v) {
    const auto& app = gather_at(net, v);
    ASSERT_TRUE(app.complete()) << v;
    EXPECT_TRUE(app.halted()) << v;
    EXPECT_EQ(app.max_value(), 42u);
    EXPECT_EQ(app.sum(), 71u);
    // values() are indexed by clockwise offset from the root (node 2).
    for (std::size_t off = 0; off < inputs.size(); ++off) {
      EXPECT_EQ(*app.values()[off], inputs[(2 + off) % inputs.size()]);
    }
  }
}

TEST(Bus, SingleNodeBus) {
  auto net = bus_ring({9}, 0);
  sim::GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  ASSERT_TRUE(report.quiescent);
  ASSERT_TRUE(report.all_terminated);
  const auto& app = gather_at(net, 0);
  EXPECT_EQ(app.ring_size(), 1u);
  EXPECT_EQ(app.sum(), 9u);
}

TEST(Bus, ExactPulseAccounting) {
  // Survey: n^2 + n. Each DATA frame of payload length L: n(2L + 3)
  // pulses. Each PASS: n + 1 (bit circle plus the private go pulse).
  // HALT: 2n. GatherAll: n DATA frames, n PASSes, one HALT.
  const std::vector<std::uint64_t> inputs{7, 0, 19, 3, 42};
  const auto n = static_cast<std::uint64_t>(inputs.size());
  auto net = bus_ring(inputs, 0);
  sim::GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  ASSERT_TRUE(report.all_terminated);
  std::uint64_t expected = n * n + n;  // survey + marker
  for (const std::uint64_t input : inputs) {
    const std::uint64_t len = encode_u64(input).size();
    expected += n * (2 * len + 3);
  }
  expected += n * (n + 1);  // n PASSes
  expected += 2 * n;        // HALT
  EXPECT_EQ(report.sent, expected);
}

TEST(Bus, PulseCountIsSchedulerIndependent) {
  const std::vector<std::uint64_t> inputs{3, 11, 6};
  std::optional<std::uint64_t> reference;
  for (auto& named : sim::standard_schedulers(4)) {
    auto net = bus_ring(inputs, 1);
    const auto report = net.run(*named.scheduler);
    ASSERT_TRUE(report.all_terminated) << named.name;
    if (!reference) {
      reference = report.sent;
    } else {
      EXPECT_EQ(report.sent, *reference) << named.name;
    }
  }
}

TEST(Bus, NonRootHaltIsRejected) {
  // Drive a ctl through an app that tries to halt as non-root.
  class BadApp final : public BusApp {
   public:
    void on_ready(std::size_t, std::size_t, bool) override {}
    void on_frame(std::size_t, const Bits&) override {}
    void on_token(BusCtl& ctl) override { ctl.halt(); }
    std::unique_ptr<BusApp> clone() const override {
      return std::make_unique<BadApp>(*this);
    }
  };
  auto net = sim::PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<BusNode>(
                           std::make_unique<GatherAllApp>(1), true));
  net.set_automaton(1, std::make_unique<BusNode>(
                           std::make_unique<BadApp>(), false));
  sim::GlobalFifoScheduler sched;
  EXPECT_THROW(net.run(sched), util::ContractViolation);
}

// --- Corollary 5: election composed with the bus -----------------------

TEST(Composition, ElectThenGatherEndToEnd) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1, 7};
  const std::vector<std::uint64_t> inputs{100, 200, 300, 400, 500, 600};
  sim::PulseNetwork net;
  sim::RandomScheduler sched(3);
  const auto result = run_composed_with_network(
      ids,
      [&inputs](sim::NodeId v) {
        return std::make_unique<GatherAllApp>(inputs[v]);
      },
      sched, {}, net);

  ASSERT_TRUE(result.quiescent);
  ASSERT_TRUE(result.all_terminated);
  EXPECT_EQ(result.report.deliveries_to_terminated, 0u);
  ASSERT_TRUE(result.leader.has_value());
  EXPECT_EQ(*result.leader, 1u);  // max ID 11
  EXPECT_EQ(result.ring_size_learned, ids.size());
  // The election phase costs exactly Theorem 1's bound.
  EXPECT_EQ(result.election_pulses, co::theorem1_pulses(ids.size(), 11));
  EXPECT_EQ(result.total_pulses,
            result.election_pulses + result.bus_pulses);

  // Every node gathered every input; the leader (bus root) sits at offset 0.
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& composed = net.automaton_as<ComposedNode>(v);
    ASSERT_NE(composed.bus(), nullptr);
    const auto& app = dynamic_cast<const GatherAllApp&>(composed.bus()->app());
    ASSERT_TRUE(app.complete());
    EXPECT_EQ(app.sum(), 2100u);
    EXPECT_EQ(app.max_value(), 600u);
    EXPECT_EQ(app.offset(), (v + ids.size() - 1) % ids.size());
  }
}

TEST(Composition, WorksUnderEveryScheduler) {
  const std::vector<std::uint64_t> ids{4, 9, 2};
  for (auto& named : sim::standard_schedulers(3)) {
    const auto result = run_composed(
        ids, [](sim::NodeId v) { return std::make_unique<GatherAllApp>(v); },
        *named.scheduler);
    ASSERT_TRUE(result.all_terminated) << named.name;
    EXPECT_EQ(result.election_pulses, co::theorem1_pulses(3, 9))
        << named.name;
    EXPECT_EQ(*result.leader, 1u) << named.name;
    EXPECT_EQ(result.ring_size_learned, 3u) << named.name;
  }
}

TEST(Composition, SingleNode) {
  const auto result = run_composed(
      {5}, [](sim::NodeId) { return std::make_unique<GatherAllApp>(77); },
      *sim::standard_schedulers(1)[0].scheduler);
  ASSERT_TRUE(result.all_terminated);
  EXPECT_EQ(result.election_pulses, 11u);
  EXPECT_EQ(result.ring_size_learned, 1u);
}

// --- Universal simulation (SimulatorApp) -------------------------------

TEST(Simulation, RingSumOverTheBus) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9};
  const std::vector<std::uint64_t> inputs{10, 20, 30, 40};
  sim::PulseNetwork net;
  sim::GlobalFifoScheduler sched;
  const auto result = run_composed_with_network(
      ids,
      [&inputs](sim::NodeId v) {
        return std::make_unique<SimulatorApp>(
            std::make_unique<RingSumSimNode>(inputs[v]));
      },
      sched, {}, net);

  ASSERT_TRUE(result.all_terminated);
  // Simulated indices are clockwise offsets from the leader (node 1).
  // Simulated node 0 == ring node 1; its input is inputs[1].
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& composed = net.automaton_as<ComposedNode>(v);
    const auto& app =
        dynamic_cast<const SimulatorApp&>(composed.bus()->app());
    ASSERT_TRUE(app.halted()) << v;
    const auto& sum_node = dynamic_cast<const RingSumSimNode&>(app.node());
    ASSERT_TRUE(sum_node.total().has_value()) << v;
    EXPECT_EQ(*sum_node.total(), 100u) << v;
  }
}

TEST(Simulation, SingleNodeRingSum) {
  sim::GlobalFifoScheduler sched;
  sim::PulseNetwork net;
  const auto result = run_composed_with_network(
      {3},
      [](sim::NodeId) {
        return std::make_unique<SimulatorApp>(
            std::make_unique<RingSumSimNode>(55));
      },
      sched, {}, net);
  ASSERT_TRUE(result.all_terminated);
  const auto& app = dynamic_cast<const SimulatorApp&>(
      net.automaton_as<ComposedNode>(0).bus()->app());
  const auto& node = dynamic_cast<const RingSumSimNode&>(app.node());
  EXPECT_EQ(*node.total(), 55u);
}

TEST(Simulation, ChangRobertsOverFullyDefectiveChannels) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 7};
  sim::PulseNetwork net;
  sim::RandomScheduler sched(9);
  const auto result = run_composed_with_network(
      ids,
      [&ids](sim::NodeId v) {
        return std::make_unique<SimulatorApp>(
            std::make_unique<ChangRobertsSimNode>(ids[v]));
      },
      sched, {}, net);
  ASSERT_TRUE(result.all_terminated);
  std::size_t sim_leaders = 0;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& app = dynamic_cast<const SimulatorApp&>(
        net.automaton_as<ComposedNode>(v).bus()->app());
    const auto& cr = dynamic_cast<const ChangRobertsSimNode&>(app.node());
    ASSERT_TRUE(cr.leader().has_value()) << v;
    EXPECT_EQ(*cr.leader(), 11u) << v;
    if (cr.is_leader()) ++sim_leaders;
  }
  EXPECT_EQ(sim_leaders, 1u);
}


TEST(UniqueIds, AssignsCompactDistinctIds) {
  // Section 5 separation discussion: assigning unique IDs is computable
  // once a root exists; the survey alone distinguishes every node.
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1};
  sim::PulseNetwork net;
  sim::RandomScheduler sched(4);
  const auto result = run_composed_with_network(
      ids, [](sim::NodeId) { return std::make_unique<UniqueIdsApp>(); },
      sched, {}, net);
  ASSERT_TRUE(result.all_terminated);
  std::set<std::uint64_t> seen;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& app = dynamic_cast<const UniqueIdsApp&>(
        net.automaton_as<ComposedNode>(v).bus()->app());
    EXPECT_TRUE(app.halted());
    EXPECT_EQ(app.ring_size(), ids.size());
    EXPECT_GE(app.assigned_id(), 1u);
    EXPECT_LE(app.assigned_id(), ids.size());
    seen.insert(app.assigned_id());
  }
  EXPECT_EQ(seen.size(), ids.size());
  // The leader (bus root) receives ID 1.
  const auto& leader_app = dynamic_cast<const UniqueIdsApp&>(
      net.automaton_as<ComposedNode>(1).bus()->app());
  EXPECT_EQ(leader_app.assigned_id(), 1u);
}

TEST(UniqueIds, CostIsSurveyPlusHalt) {
  const std::vector<std::uint64_t> inputs{1, 1, 1, 1};
  const std::uint64_t n = 4;
  auto net = sim::PulseNetwork::ring(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    net.set_automaton(v, std::make_unique<BusNode>(
                             std::make_unique<UniqueIdsApp>(), v == 0));
  }
  sim::GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  ASSERT_TRUE(report.all_terminated);
  EXPECT_EQ(report.sent, n * n + n + 2 * n);  // survey + marker + HALT
}

TEST(BusAblation, SkipGoCorruptsUnderAdversarialSchedules) {
  // The go pulse is load-bearing: without it at least one standard
  // adversary must corrupt a gather-all run (and the safe configuration
  // must survive them all). See bench_e11_ablation for the full matrix.
  const std::vector<std::uint64_t> inputs{3, 14, 7, 1, 9};
  auto run = [&inputs](sim::Scheduler& sched, bool skip_go) {
    auto net = sim::PulseNetwork::ring(inputs.size());
    BusOptions options;
    options.unsafe_skip_go = skip_go;
    for (sim::NodeId v = 0; v < inputs.size(); ++v) {
      net.set_automaton(v, std::make_unique<BusNode>(
                               std::make_unique<GatherAllApp>(inputs[v]),
                               v == 0, options));
    }
    sim::RunOptions opts;
    opts.max_events = 500'000;
    bool ok = false;
    try {
      const auto report = net.run(sched, opts);
      ok = report.all_terminated && report.quiescent &&
           !report.hit_event_limit;
      for (sim::NodeId v = 0; v < inputs.size() && ok; ++v) {
        const auto& app = dynamic_cast<const GatherAllApp&>(
            net.automaton_as<BusNode>(v).app());
        ok = app.complete() && app.sum() == 34u;
      }
    } catch (const util::ContractViolation&) {
      ok = false;
    }
    return ok;
  };

  bool safe_all_ok = true;
  int unsafe_failures = 0;
  for (auto& named : sim::standard_schedulers(4)) {
    safe_all_ok = safe_all_ok && run(*named.scheduler, false);
    named.scheduler->reset();
    if (!run(*named.scheduler, true)) ++unsafe_failures;
  }
  EXPECT_TRUE(safe_all_ok);
  EXPECT_GT(unsafe_failures, 0);
}

// --- Forking the Corollary 5 stack mid-run -------------------------------
// Schedule exploration forks the stack only around the election-to-bus
// switch: the bus keeps one pulse in flight, so its runs never branch. Here
// a ring is forked after any number of deliveries instead, and the fork
// must finish exactly like the run it was copied from, app state included.

/// Delivers the lowest-numbered pending channel until quiescence or
/// `limit` deliveries; returns the deliveries made.
std::size_t deliver_lowest_first(
    sim::PulseNetwork& net,
    std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  std::size_t steps = 0;
  for (; steps < limit; ++steps) {
    const auto pending = net.pending_channels();
    if (pending.empty()) break;
    net.deliver_step(pending.front());
  }
  return steps;
}

/// A bus node's pulses, whether it halted, and what its app (and
/// simulated node) ended with.
std::string bus_state(const BusNode& bus) {
  std::ostringstream os;
  os << bus.pulses_sent() << (bus.halted() ? ",halted" : "");
  const BusApp& app = bus.app();
  if (const auto* gather = dynamic_cast<const GatherAllApp*>(&app)) {
    os << ",sum=" << gather->sum() << (gather->complete() ? ",all" : "");
  } else if (const auto* sim = dynamic_cast<const SimulatorApp*>(&app)) {
    os << ",delivered=" << sim->messages_delivered();
    if (const auto* sum = dynamic_cast<const RingSumSimNode*>(&sim->node())) {
      os << ",total=" << sum->total().value_or(0);
    }
    if (const auto* cr =
            dynamic_cast<const ChangRobertsSimNode*>(&sim->node())) {
      os << ",leader=" << cr->leader().value_or(0);
    }
  } else if (const auto* cast = dynamic_cast<const BroadcastApp*>(&app)) {
    os << ",received=" << cast->received().value_or(0);
  } else if (const auto* ids = dynamic_cast<const UniqueIdsApp*>(&app)) {
    os << ",id=" << ids->assigned_id();
  }
  return os.str();
}

using FinalState = std::function<std::string(const sim::PulseNetwork&)>;

/// Runs `build()`'s network lowest channel first to quiescence, then forks
/// a fresh copy after every stride-th delivery; each fork must finish with
/// the unforked run's final state.
void expect_forks_finish_alike(const std::function<sim::PulseNetwork()>& build,
                               const FinalState& state) {
  sim::PulseNetwork whole = build();
  const std::size_t total = deliver_lowest_first(whole);
  for (sim::NodeId v = 0; v < whole.size(); ++v) {
    ASSERT_TRUE(whole.automaton(v).terminated()) << "node " << v;
  }
  const std::string expected = state(whole);
  const std::size_t stride = std::max<std::size_t>(1, total / 40);
  for (std::size_t cut = 0; cut < total; cut += stride) {
    sim::PulseNetwork net = build();
    deliver_lowest_first(net, cut);
    sim::PulseNetwork fork = net.clone();
    deliver_lowest_first(fork);
    EXPECT_EQ(state(fork), expected) << "forked after " << cut;
  }
}

TEST(Forking, ComposedRingForkFinishesLikeTheOriginal) {
  const std::vector<std::uint64_t> ids{3, 5, 2};
  const std::vector<std::pair<const char*, AppFactory>> apps = {
      {"gather-all",
       [](sim::NodeId v) { return std::make_unique<GatherAllApp>(10 + v); }},
      {"broadcast",
       [](sim::NodeId) { return std::make_unique<BroadcastApp>(77); }},
      {"unique-ids",
       [](sim::NodeId) { return std::make_unique<UniqueIdsApp>(); }},
      {"ring-sum",
       [](sim::NodeId v) {
         return std::make_unique<SimulatorApp>(
             std::make_unique<RingSumSimNode>(v + 1));
       }},
      {"chang-roberts",
       [](sim::NodeId v) {
         return std::make_unique<SimulatorApp>(
             std::make_unique<ChangRobertsSimNode>(v + 4));
       }},
  };
  const FinalState state = [](const sim::PulseNetwork& net) {
    std::ostringstream os;
    os << net.total_sent();
    for (sim::NodeId v = 0; v < net.size(); ++v) {
      const auto& node = net.automaton_as<ComposedNode>(v);
      os << '|' << co::to_string(node.election().role());
      if (node.bus() != nullptr) os << ',' << bus_state(*node.bus());
    }
    return os.str();
  };
  for (const auto& [name, app] : apps) {
    SCOPED_TRACE(name);
    expect_forks_finish_alike(
        [&ids, &app = app] {
          auto net = sim::PulseNetwork::ring(ids.size());
          for (sim::NodeId v = 0; v < ids.size(); ++v) {
            net.set_automaton(v,
                              std::make_unique<ComposedNode>(ids[v], app(v)));
          }
          net.start_all();
          return net;
        },
        state);
  }
}

TEST(Forking, BareBusForkFinishesLikeTheOriginal) {
  expect_forks_finish_alike(
      [] {
        auto net = sim::PulseNetwork::ring(3);
        for (sim::NodeId v = 0; v < 3; ++v) {
          net.set_automaton(
              v, std::make_unique<BusNode>(
                     std::make_unique<GatherAllApp>(10 + v), v == 0));
        }
        net.start_all();
        return net;
      },
      [](const sim::PulseNetwork& net) {
        std::ostringstream os;
        os << net.total_sent();
        for (sim::NodeId v = 0; v < net.size(); ++v) {
          os << '|' << bus_state(net.automaton_as<BusNode>(v));
        }
        return os.str();
      });
}

}  // namespace
}  // namespace colex::colib
