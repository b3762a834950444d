// Node layout and ring wiring for the coroutine runtime.
//
// Each ring node is one cache-line-sized block: its two incoming pulse
// channels, the scheduler state word, the wiring (peer index + peer port
// label per port), and the node coroutine's handle. The whole node fits in
// (and is aligned to) a single cache line, so at n=10^6 the node table is
// 64MB of contiguous memory with zero per-node allocation, and two nodes
// never share a line (no false sharing between neighbors' send paths and
// an unrelated node's scheduler word).
//
// Wiring is identical to sim::Network<P>::ring: edge i
// attaches node i's Port1 to node i+1's Port0 in the oriented base, with
// optional per-node port-label flips for non-oriented rings.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "coro/spsc.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::coro {

/// Bit set of a node's two ports: bit i is port label i.
using PortMask = std::uint8_t;
inline constexpr PortMask kBothPorts = 0b11;
/// The mask holding port label `port` alone.
constexpr PortMask port_bit(int port) {
  return static_cast<PortMask>(1u << port);
}

/// Scheduler state of a node coroutine. A parked state names the ports
/// whose pulses may wake the node (its low two bits). Transitions:
///   ready -> running        (a worker popped it and resumes it)
///   running -> parked*      (wait_any found its wanted channels empty)
///   running -> done         (the coroutine returned)
///   parked* -> ready        (a producer's CAS claimed the wakeup for a
///                            pulse on a wanted port; exactly the claimant
///                            pushes the node to a deque)
///   parked* -> running      (the parking node reclaimed itself: a pulse
///                            landed on a wanted port between its empty
///                            poll and the CAS)
/// `parked* -> ready` is the only cross-thread transition and is a CAS, so
/// a wakeup is claimed exactly once no matter how many pulses race in —
/// later pulses find READY and coalesce into the pending wakeup (batching).
enum class NodeState : std::uint32_t {
  ready = 0,
  running = 1,
  done = 2,
  parked_p0 = 4 | 0b01,  ///< wakes only for a pulse on p0
  parked_p1 = 4 | 0b10,  ///< wakes only for a pulse on p1
  parked = 4 | 0b11,     ///< wakes for a pulse on either port
};

/// The parked state that wakes for pulses on `wanted` (non-empty).
constexpr NodeState parked_on(PortMask wanted) {
  return static_cast<NodeState>(4 | wanted);
}
constexpr bool is_parked(NodeState s) {
  return (static_cast<std::uint32_t>(s) & 4) != 0;
}
/// The ports a parked state waits on (0 for any other state).
constexpr PortMask wanted_ports(NodeState s) {
  return is_parked(s) ? static_cast<PortMask>(static_cast<std::uint32_t>(s) &
                                              kBothPorts)
                      : 0;
}

struct alignas(kCacheLine) CoroNode {
  PulseChannel in[2];  ///< incoming pulses, indexed by this node's port label
  std::atomic<NodeState> state{NodeState::ready};
  std::uint32_t peer[2] = {0, 0};        ///< node at the far end of port p
  std::uint8_t peer_port[2] = {0, 0};    ///< port label at that peer
  /// Current algorithm phase (sim::Phase index), published by the node
  /// coroutine at transitions — a relaxed store on the node's own line;
  /// read by stall dumps and the per-phase distribution gauges.
  std::atomic<std::uint8_t> phase{0};
  /// Ports whose recv() came back empty since the node last waited. A plain
  /// byte: only the thread running the node touches it, and the hand-off
  /// to the next runner goes through the state word and a deque.
  PortMask polled_empty = 0;
  std::coroutine_handle<> handle{};      ///< set once before the run starts

  /// True iff a pulse is pending on one of the ports in `ports` (seq_cst
  /// loads, as the sleep/wake protocol's re-check needs).
  bool has_pending(PortMask ports) const {
    return ((ports & 0b01) != 0 && in[0].pending() != 0) ||
           ((ports & 0b10) != 0 && in[1].pending() != 0);
  }
};

static_assert(sizeof(CoroNode) == kCacheLine,
              "a node must pack into one cache line");

/// Builds the node table for an n-ring with the given per-node port flips
/// (empty = oriented).
inline std::vector<CoroNode> wire_ring(std::size_t n,
                                       const std::vector<bool>& port_flips) {
  COLEX_EXPECTS(n >= 1);
  COLEX_EXPECTS(port_flips.empty() || port_flips.size() == n);
  COLEX_EXPECTS(n <= UINT32_MAX);
  std::vector<CoroNode> nodes(n);
  auto flipped = [&port_flips](std::size_t v) {
    return !port_flips.empty() && port_flips[v];
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    const sim::Port from = flipped(i) ? sim::Port::p0 : sim::Port::p1;
    const sim::Port to = flipped(j) ? sim::Port::p1 : sim::Port::p0;
    nodes[i].peer[sim::index(from)] = static_cast<std::uint32_t>(j);
    nodes[i].peer_port[sim::index(from)] =
        static_cast<std::uint8_t>(sim::index(to));
    nodes[j].peer[sim::index(to)] = static_cast<std::uint32_t>(i);
    nodes[j].peer_port[sim::index(to)] =
        static_cast<std::uint8_t>(sim::index(from));
  }
  return nodes;
}

}  // namespace colex::coro
