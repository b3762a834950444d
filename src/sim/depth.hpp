// Causal depth: the longest happens-before chain of pulses in one run.
// Wall time on a real substrate is roughly depth × per-hop latency (E18's
// us_per_hop), because hops on one chain cannot overlap; the pulse count
// alone cannot say how much of a run is sequential.
//
// A Lamport clock computes it. Every send gets its node's clock + 1 and
// joins its channel's FIFO of depths; every delivery pops that FIFO and
// raises the receiver's clock to the popped depth. The depth is the largest
// value seen. The clock advances at delivery, not at consumption, so a node
// that leaves a pulse unconsumed makes the result an upper bound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/network.hpp"
#include "util/contracts.hpp"

namespace colex::sim {

/// Hooks into a run like TraceRecorder and measures its causal depth.
/// Fault-free runs only: a delivery with no recorded send (an injected
/// pulse) throws util::ContractViolation instead of returning a wrong
/// depth. A run without the probe is unchanged.
///
///   CausalDepthProbe probe;
///   sim::RunOptions opts;
///   probe.attach(net, opts);         // chains any hooks already set
///   net.run(scheduler, opts);
///   probe.depth();
class CausalDepthProbe {
 public:
  CausalDepthProbe() = default;
  // The hooks hold this probe's address: it must outlive the runs it is
  // attached to, and it does not move.
  CausalDepthProbe(const CausalDepthProbe&) = delete;
  CausalDepthProbe& operator=(const CausalDepthProbe&) = delete;

  void attach(PulseNetwork& net, RunOptions& opts) {
    const std::size_t nodes = net.size();
    clock_.assign(nodes, 0);
    depth_ = 0;
    fifo_.assign(net.channel_count(), {});
    from_slot_.assign(2 * nodes, 0);
    to_slot_.assign(2 * nodes, 0);
    for (std::size_t c = 0; c < fifo_.size(); ++c) {
      const auto [from, from_port] = net.channel_source(c);
      const auto [to, to_port] = net.channel_target(c);
      from_slot_[slot(from, from_port)] = c;
      to_slot_[slot(to, to_port)] = c;
    }
    auto previous_deliver = opts.on_deliver;
    opts.on_deliver = [this, previous_deliver](NodeId v, Port p,
                                               Direction d) {
      Fifo<std::uint64_t>& q = fifo_[to_slot_[slot(v, p)]];
      COLEX_ASSERT(!q.empty());  // a pulse nobody sent: not fault-free
      clock_[v] = std::max(clock_[v], q.pop_front());
      if (previous_deliver) previous_deliver(v, p, d);
    };
    net.chain_send_observer([this](NodeId v, Port p, Direction) {
      const std::uint64_t d = clock_[v] + 1;
      fifo_[from_slot_[slot(v, p)]].push_back(d);
      depth_ = std::max(depth_, d);
    });
  }

  /// The longest chain of pulses seen so far, in hops.
  std::uint64_t depth() const { return depth_; }

 private:
  static std::size_t slot(NodeId v, Port p) {
    return 2 * v + static_cast<std::size_t>(sim::index(p));
  }

  std::vector<std::uint64_t> clock_;  ///< per node
  std::vector<Fifo<std::uint64_t>> fifo_;  ///< per channel, in flight
  std::vector<std::size_t> from_slot_;  ///< sending endpoint -> channel
  std::vector<std::size_t> to_slot_;    ///< receiving endpoint -> channel
  std::uint64_t depth_ = 0;
};

}  // namespace colex::sim
