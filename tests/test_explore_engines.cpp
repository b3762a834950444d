// Engine equivalence: the fork-based snapshot explorer (sim/explore.hpp)
// and the replay-from-scratch reference (qa/replay_explore.hpp) define the
// *same* tree (branch on every pending channel in ascending channel order),
// so on every configuration they must visit the same leaves in the same
// order — identical ExploreStats and an identical sequence of per-leaf
// outcomes. The replay engine never clones, so this is also the check on
// every automaton's clone(): a fork that loses state shows up as a
// different leaf sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/replicated.hpp"
#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "qa/generators.hpp"
#include "qa/properties.hpp"
#include "qa/replay_explore.hpp"
#include "sim/explore.hpp"
#include "sim/network.hpp"

namespace colex::co {
namespace {

using Signature = std::function<std::string(sim::PulseNetwork&)>;

/// Everything observable about a finished election, flattened to a string:
/// total pulse count plus each node's role. Two leaves with equal
/// signatures reached equal outcomes.
template <typename Alg>
Signature roles_of(std::size_t n) {
  return [n](sim::PulseNetwork& net) {
    std::ostringstream os;
    os << net.total_sent();
    for (sim::NodeId v = 0; v < n; ++v) {
      os << '|' << to_string(net.automaton_as<Alg>(v).role());
    }
    return os.str();
  };
}

/// Explores the same configuration with both engines and requires identical
/// stats and identical per-leaf signature sequences, with at least one leaf.
void expect_engines_agree(const std::function<sim::PulseNetwork()>& build,
                          const Signature& signature, std::uint64_t budget) {
  sim::ExploreOptions options;
  options.budget = budget;
  std::vector<std::string> leaves[2];
  const auto leaf_into = [&signature](std::vector<std::string>& sink) {
    return [&sink, &signature](sim::PulseNetwork& net) {
      sink.push_back(signature(net));
    };
  };
  const sim::ExploreStats snapshot =
      sim::explore_all_schedules(build, leaf_into(leaves[0]), options);
  const sim::ExploreStats replay =
      qa::replay_explore_all_schedules(build, leaf_into(leaves[1]), options);
  EXPECT_EQ(snapshot, replay);
  ASSERT_FALSE(leaves[0].empty());
  ASSERT_EQ(leaves[0].size(), leaves[1].size());
  for (std::size_t i = 0; i < leaves[0].size(); ++i) {
    ASSERT_EQ(leaves[0][i], leaves[1][i]) << "leaf " << i;
  }
}

template <typename Alg>
void expect_engines_agree(const std::function<sim::PulseNetwork()>& build,
                          std::size_t n, std::uint64_t budget) {
  expect_engines_agree(build, roles_of<Alg>(n), budget);
}

template <typename Alg>
std::function<sim::PulseNetwork()> ring_of(
    const std::vector<std::uint64_t>& ids) {
  return [ids] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<Alg>(ids[v]));
    }
    return net;
  };
}

TEST(ExploreEngines, Alg2SingleNode) {
  expect_engines_agree<Alg2Terminating>(ring_of<Alg2Terminating>({3}), 1,
                                        100'000);
}

TEST(ExploreEngines, Alg2TwoNodes) {
  expect_engines_agree<Alg2Terminating>(ring_of<Alg2Terminating>({1, 2}), 2,
                                        2'000'000);
}

TEST(ExploreEngines, Alg2TwoNodesSparseIds) {
  expect_engines_agree<Alg2Terminating>(ring_of<Alg2Terminating>({4, 2}), 2,
                                        4'000'000);
}

TEST(ExploreEngines, Alg2ThreeNodes) {
  expect_engines_agree<Alg2Terminating>(ring_of<Alg2Terminating>({2, 3, 1}),
                                        3, 4'000'000);
}

TEST(ExploreEngines, Alg1ThreeNodes) {
  expect_engines_agree<Alg1Stabilizing>(ring_of<Alg1Stabilizing>({2, 3, 1}),
                                        3, 2'000'000);
}

TEST(ExploreEngines, Alg3ScrambledTwoNodes) {
  const std::vector<std::uint64_t> ids{2, 3};
  const std::vector<bool> flips{true, false};
  const auto build = [ids, flips] {
    auto net = sim::PulseNetwork::ring(2, flips);
    for (sim::NodeId v = 0; v < 2; ++v) {
      net.set_automaton(
          v, std::make_unique<Alg3NonOriented>(ids[v],
                                               Alg3NonOriented::Options{}));
    }
    return net;
  };
  expect_engines_agree<Alg3NonOriented>(build, 2, 4'000'000);
}

TEST(ExploreEngines, TruncationPatternMatchesUnderTightBudget) {
  // With a budget far below the tree size, both engines must truncate at
  // the same tree nodes: equal leaf/truncated counts and equal per-leaf
  // outcomes prefix (both count a tree-node visit as one budget unit).
  expect_engines_agree<Alg2Terminating>(ring_of<Alg2Terminating>({2, 3, 1}),
                                        3, 500);
}

TEST(ExploreEngines, AgreeOnHundredFuzzedConfigurations) {
  // The hand-picked rings above pin known shapes; this drives the same
  // equivalence claim from the fuzzer's generator instead — 100 seeded
  // configurations across every algorithm, duplicate IDs, and port
  // scrambles, each explored by both engines under a tight shared budget
  // (exercising identical truncation as much as identical completion).
  qa::GeneratorOptions opts;
  opts.max_n = 3;
  opts.max_id = 4;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const qa::FuzzCase c = qa::generate_case(seed, opts);
    const std::string diag = qa::check_engine_agreement(c, 25'000);
    EXPECT_TRUE(diag.empty())
        << "seed " << seed << " (" << qa::to_string(c.alg) << ", n=" << c.n()
        << "): " << diag;
  }
}

// --- Forkability of the Corollary 5 stack (DESIGN §5) --------------------
// The rings above fork only Algorithms 1-3. These are the only explorations
// whose forks reach the bus, its apps, the simulated nodes and the
// replication adapter. At n=2 each tree fits its budget (9 leaves per
// composed ring, 201 for the replicated one).

std::function<sim::PulseNetwork()> composed_ring(
    const std::vector<std::uint64_t>& ids, const colib::AppFactory& app) {
  return [ids, app] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v,
                        std::make_unique<colib::ComposedNode>(ids[v], app(v)));
    }
    return net;
  };
}

/// Pulses, plus per node its election role and, once on the bus, what the
/// survey taught it, the bus pulses it sent and whether it halted.
std::string composed_signature(sim::PulseNetwork& net) {
  std::ostringstream os;
  os << net.total_sent();
  for (sim::NodeId v = 0; v < net.size(); ++v) {
    const auto& node = net.automaton_as<colib::ComposedNode>(v);
    os << '|' << to_string(node.election().role());
    if (const colib::BusNode* bus = node.bus()) {
      os << ',' << bus->ring_size() << ',' << bus->my_offset() << ','
         << bus->pulses_sent() << (bus->halted() ? ",halted" : "");
    }
  }
  return os.str();
}

TEST(ExploreEngines, ComposedTwoNodeRingForksEveryBusApp) {
  const std::vector<std::pair<const char*, colib::AppFactory>> apps = {
      {"gather-all",
       [](sim::NodeId v) { return std::make_unique<colib::GatherAllApp>(v); }},
      {"broadcast",
       [](sim::NodeId) { return std::make_unique<colib::BroadcastApp>(5); }},
      {"unique-ids",
       [](sim::NodeId) { return std::make_unique<colib::UniqueIdsApp>(); }},
      {"ring-sum",
       [](sim::NodeId v) {
         return std::make_unique<colib::SimulatorApp>(
             std::make_unique<colib::RingSumSimNode>(v + 1));
       }},
      {"chang-roberts",
       [](sim::NodeId v) {
         return std::make_unique<colib::SimulatorApp>(
             std::make_unique<colib::ChangRobertsSimNode>(v + 3));
       }},
  };
  for (const auto& [name, app] : apps) {
    SCOPED_TRACE(name);
    expect_engines_agree(composed_ring({1, 2}, app), composed_signature,
                         2'000);
  }
}

TEST(ExploreEngines, ReplicatedTwoNodeRing) {
  const std::vector<std::uint64_t> ids{1, 2};
  const auto build = [ids] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<ReplicatedAdapter>(
                               std::make_unique<Alg2Terminating>(ids[v]), 1));
    }
    return net;
  };
  const Signature signature = [](sim::PulseNetwork& net) {
    std::ostringstream os;
    os << net.total_sent();
    for (sim::NodeId v = 0; v < net.size(); ++v) {
      const auto& node = net.automaton_as<ReplicatedAdapter>(v);
      os << '|' << to_string(node.inner_as<Alg2Terminating>().role()) << ','
         << node.physical_received(sim::Port::p0) << ','
         << node.physical_received(sim::Port::p1);
    }
    return os.str();
  };
  expect_engines_agree(build, signature, 20'000);
}

}  // namespace
}  // namespace colex::co
