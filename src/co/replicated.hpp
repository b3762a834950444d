// The Section 1.1 relaxation of quiescent termination: if at most r stray
// pulses of a preceding protocol can still reach a node (per incoming
// channel) after it switched to this one, the protocol can be run in an
// "altered form where nodes send r+1 copies of each message, and process
// arriving messages in groups of r+1 messages as well" — at an r-fold
// increase in message complexity.
//
// Why grouping works: channels are FIFO, so the s <= r strays on a channel
// arrive before every legitimate pulse, and the r+1 copies of each logical
// pulse are consecutive. Group k (arrivals (k-1)(r+1)+1 .. k(r+1)) then
// always contains at least one copy of logical pulse k and none of pulse
// k+1, so delivering one logical pulse per completed group reproduces the
// unreplicated execution exactly — merely skewed at most r arrivals early.
//
// ReplicatedAdapter wraps any pulse automaton with this transformation; it
// is how a *non*-quiescently-terminating first algorithm could still be
// composed, and it makes the r-fold overhead measurable (bench E11).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/network.hpp"

namespace colex::co {

class ReplicatedAdapter final : public sim::PulseAutomaton {
 public:
  /// Wraps `inner`, tolerating up to `r` stray leading pulses per incoming
  /// channel. r = 0 is the identity transformation.
  ReplicatedAdapter(std::unique_ptr<sim::PulseAutomaton> inner, unsigned r);

  void start(sim::PulseContext& ctx) override;
  void react(sim::PulseContext& ctx) override;
  bool terminated() const override { return inner_->terminated(); }
  std::unique_ptr<sim::PulseAutomaton> clone() const override;

  sim::PulseAutomaton& inner() { return *inner_; }
  const sim::PulseAutomaton& inner() const { return *inner_; }

  /// Typed access to the wrapped algorithm.
  template <typename T>
  const T& inner_as() const {
    return dynamic_cast<const T&>(*inner_);
  }

  std::uint64_t physical_received(sim::Port p) const {
    return physical_received_[sim::index(p)];
  }

 private:
  /// The Context the inner automaton sees: logical pulses.
  class GroupContext final : public sim::PulseContext {
   public:
    GroupContext(sim::PulseContext& outer, ReplicatedAdapter& adapter)
        : outer_(outer), adapter_(adapter) {}

    std::size_t queued(sim::Port p) const override {
      return adapter_.logical_available(p);
    }
    std::optional<sim::Pulse> recv(sim::Port p) override {
      if (adapter_.logical_available(p) == 0) return std::nullopt;
      ++adapter_.logical_consumed_[sim::index(p)];
      return sim::Pulse{};
    }
    using sim::PulseContext::send;
    void send(sim::Port p, sim::Pulse payload) override {
      for (unsigned i = 0; i <= adapter_.r_; ++i) outer_.send(p, payload);
    }
    bool serialized_reactions() const override {
      return outer_.serialized_reactions();
    }

   private:
    sim::PulseContext& outer_;
    ReplicatedAdapter& adapter_;
  };

  std::size_t logical_available(sim::Port p) const {
    const auto i = sim::index(p);
    return physical_received_[i] / (r_ + 1) - logical_consumed_[i];
  }

  /// Moves every physically delivered pulse into the group counters.
  void absorb_physical(sim::PulseContext& ctx);

  std::unique_ptr<sim::PulseAutomaton> inner_;
  unsigned r_;
  std::uint64_t physical_received_[2] = {0, 0};
  std::uint64_t logical_consumed_[2] = {0, 0};
};

}  // namespace colex::co
