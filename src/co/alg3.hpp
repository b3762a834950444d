// Algorithm 3 (paper §4): quiescently stabilizing leader election AND ring
// orientation on non-oriented rings.
//
// Each node picks two virtual IDs and runs, in effect, two parallel
// executions of Algorithm 1 — one per direction of the ring — without
// knowing which of its ports faces which direction: a pulse received at one
// port is forwarded out the opposite port unless the per-port received count
// equals the governing virtual ID. The two executions have distinct maximal
// virtual IDs, so at quiescence every node has received strictly more pulses
// from one direction than from the other; that asymmetry elects the unique
// node of maximal ID and names every node's ports consistently (the port
// receiving more pulses faces the CCW neighbor).
//
// Two virtual-ID schemes are provided:
//  * doubled  (Prop. 15): ID^(i) = 2*ID - 1 + i; total pulses n(4*IDmax - 1).
//  * improved (Thm. 2):   ID^(i) = ID + i;       total pulses n(2*IDmax + 1).
// The improved scheme assigns non-unique virtual IDs across nodes, which is
// sound by Lemma 16/17 as long as each direction's *maximal* ID is unique.
//
// The `resample_ids` option implements Proposition 19: whenever a node
// receives a pulse and min(rho_0, rho_1) exceeds its current ID, it redraws
// its ID uniformly from [1, min(rho_0, rho_1) - 1]; with high probability all
// nodes hold distinct IDs at quiescence (used to bootstrap unique IDs on
// anonymous rings). Resampling only rewrites the node's *stored* ID — the
// virtual IDs driving pulse forwarding are fixed at start, exactly as in the
// paper's modification.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "co/roles.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace colex::co {

enum class IdScheme {
  doubled,   // Proposition 15
  improved,  // Theorem 2
};

constexpr const char* to_string(IdScheme s) {
  return s == IdScheme::doubled ? "doubled" : "improved";
}

/// Virtual ID pair for `id` under `scheme`; index i governs pulses received
/// at port 1-i and forwarded out port i.
struct VirtualIds {
  std::uint64_t vid[2];
};
VirtualIds virtual_ids(std::uint64_t id, IdScheme scheme);

class Alg3NonOriented final : public sim::PulseAutomaton {
 public:
  struct Options {
    IdScheme scheme = IdScheme::improved;
    /// Enables the Proposition 19 ID-resampling rule, seeded per node.
    std::optional<std::uint64_t> resample_seed;
  };

  Alg3NonOriented(std::uint64_t id, Options options);

  void start(sim::PulseContext& ctx) override;
  void react(sim::PulseContext& ctx) override;
  std::unique_ptr<sim::PulseAutomaton> clone() const override {
    return std::make_unique<Alg3NonOriented>(*this);
  }
  /// Probe until the output block fires; afterwards a node whose ports
  /// turned out to be mounted against the elected orientation (cw_port =
  /// Port0) reports orientation_flip, the rest report elected.
  sim::Phase phase() const override {
    if (role_ == Role::undecided) return sim::Phase::probe;
    return cw_port_ == sim::Port::p0 ? sim::Phase::orientation_flip
                                     : sim::Phase::elected;
  }

  /// The node's current ID: the initial one, or the latest Prop.-19 redraw.
  std::uint64_t id() const { return id_; }
  std::uint64_t initial_id() const { return initial_id_; }
  Role role() const { return role_; }
  std::uint64_t rho(sim::Port p) const { return rho_[sim::index(p)]; }
  std::uint64_t sigma(sim::Port p) const { return sigma_[sim::index(p)]; }
  /// The port this node has named as leading to its CW neighbor. Only
  /// meaningful once max(rho_0, rho_1) >= ID^(1) (undefined before; we
  /// report the latest computed value, initially Port1).
  sim::Port cw_port() const { return cw_port_; }

  /// Fault-injection only (sim/faults.hpp): overwrites the per-port
  /// counters as if a transient memory fault hit the node, so the fault
  /// harness can probe which corrupted states Algorithm 3 stabilizes from.
  /// The virtual IDs are left intact (they are code, not state).
  void load_corrupted_state(const std::uint64_t rho[2],
                            const std::uint64_t sigma[2]) {
    for (const int i : {0, 1}) {
      rho_[i] = rho[i];
      sigma_[i] = sigma[i];
    }
  }

 private:
  void update_output();

  std::uint64_t id_;
  std::uint64_t initial_id_;
  VirtualIds vids_;
  Role role_ = Role::undecided;
  std::uint64_t rho_[2] = {0, 0};
  std::uint64_t sigma_[2] = {0, 0};
  sim::Port cw_port_ = sim::Port::p1;
  std::optional<util::Xoshiro256StarStar> resampler_;
};

}  // namespace colex::co
