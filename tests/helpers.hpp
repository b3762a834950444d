// Shared helpers for the test suites.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"

namespace colex::test {

using util::all_flip_masks;
using util::dense_ids;
using util::random_flips;
using util::shuffled;
using util::sparse_ids;

/// Name list of the standard scheduler suite, for parameterized tests.
inline std::vector<std::string> standard_scheduler_names(
    std::size_t random_instances) {
  std::vector<std::string> names;
  for (auto& s : sim::standard_schedulers(random_instances)) {
    names.push_back(s.name);
  }
  return names;
}

/// Builds a fresh scheduler by name from the standard suite.
inline std::unique_ptr<sim::Scheduler> make_scheduler(
    const std::string& name, std::size_t random_instances) {
  for (auto& s : sim::standard_schedulers(random_instances)) {
    if (s.name == name) return std::move(s.scheduler);
  }
  return nullptr;
}

/// Decorator that overrides only pick(views), as outside decorators do, so
/// the runner drives the wrapped scheduler on the view path even when it
/// supports the incremental protocol: the reference an indexed run of the
/// same scheduler must reproduce pick for pick.
class ViewPathScheduler final : public sim::Scheduler {
 public:
  explicit ViewPathScheduler(sim::Scheduler& inner) : inner_(inner) {}
  std::size_t pick(const std::vector<sim::ChannelView>& pending) override {
    return inner_.pick(pending);
  }
  std::string name() const override { return "views(" + inner_.name() + ")"; }
  void reset() override { inner_.reset(); }

 private:
  sim::Scheduler& inner_;
};

/// The pulse algorithms a plain simulator ring can run.
enum class RingAlg { alg1, alg2, alg3 };

/// A ring of `alg` automata on `ids`; Algorithm 3 gets seeded random flips.
inline sim::PulseNetwork make_ring(RingAlg alg,
                                   const std::vector<std::uint64_t>& ids) {
  const std::vector<bool> flips = alg == RingAlg::alg3
                                      ? util::random_flips(ids.size(), 3)
                                      : std::vector<bool>{};
  auto net = sim::PulseNetwork::ring(ids.size(), flips);
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    std::unique_ptr<sim::PulseAutomaton> a;
    switch (alg) {
      case RingAlg::alg1:
        a = std::make_unique<co::Alg1Stabilizing>(ids[v]);
        break;
      case RingAlg::alg2:
        a = std::make_unique<co::Alg2Terminating>(ids[v]);
        break;
      case RingAlg::alg3:
        a = std::make_unique<co::Alg3NonOriented>(
            ids[v], co::Alg3NonOriented::Options{});
        break;
    }
    net.set_automaton(v, std::move(a));
  }
  return net;
}

/// The schedulers that take the incremental protocol, as fresh instances:
/// global-fifo and one seeded random.
inline std::vector<std::unique_ptr<sim::Scheduler>> indexed_schedulers(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<sim::Scheduler>> out;
  out.push_back(std::make_unique<sim::GlobalFifoScheduler>());
  out.push_back(std::make_unique<sim::RandomScheduler>(seed));
  return out;
}

}  // namespace colex::test
