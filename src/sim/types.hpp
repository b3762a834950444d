// Basic vocabulary of the content-oblivious network model (paper §2).
#pragma once

#include <cstddef>
#include <cstdint>

namespace colex::sim {

using NodeId = std::size_t;

/// Each ring node communicates through two bidirectional ports, Port0 and
/// Port1 (paper §2, "Ring's orientation"). In an *oriented* ring, Port1 leads
/// to the clockwise neighbor; in a non-oriented ring the assignment is
/// arbitrary per node.
enum class Port : int { p0 = 0, p1 = 1 };

constexpr Port opposite(Port p) { return p == Port::p0 ? Port::p1 : Port::p0; }
constexpr int index(Port p) { return static_cast<int>(p); }
constexpr Port port_from_index(int i) { return i == 0 ? Port::p0 : Port::p1; }

/// A fully corrupted message: carries no content whatsoever (paper §2).
struct Pulse {};

/// Physical direction of a directed channel with respect to the underlying
/// cycle 0 -> 1 -> ... -> n-1 -> 0 used to build the ring. Nodes in
/// non-oriented rings cannot observe this; it exists for analysis,
/// scheduling, and ground-truth checks only.
enum class Direction { cw, ccw };

constexpr const char* to_string(Direction d) {
  return d == Direction::cw ? "cw" : "ccw";
}

/// The algorithm phase a node is in, for phase-aware telemetry. Every
/// substrate attributes each pulse to its sender's phase: the sim automata
/// report it through Automaton::phase(), the blocking transcriptions track
/// it in BlockingOutcome::phase_sends, and the soak harness publishes the
/// merged counters as `pulses{phase=...}` series. A fixed enum keeps the
/// per-send hot path an array index. The phases map onto the pseudocode:
///  * probe            — undecided: the Algorithm 1 probe loop (lines 2-7),
///                       Algorithm 2 before any role is fixed, Algorithm 3
///                       before the output block has fired.
///  * elected          — a role (Leader/Non-Leader) has been computed; the
///                       node keeps relaying (stabilizing algorithms) or
///                       drains toward termination (Algorithm 2 lines 9-13).
///  * initiated_wait   — Algorithm 2 lines 14-17: the unique
///                       rho_cw = ID = rho_ccw node sent the termination
///                       pulse and waits for its return.
///  * orientation_flip — Algorithm 3 output with cw_port = Port0: the node
///                       decided its port labels were mounted against the
///                       elected orientation.
///  * done             — past the until in Algorithm 2 line 18 (terminated).
///  * adversary        — not a node phase: the residual bucket for pulses
///                       the fabric carried but no node sent (spurious
///                       injections minus drops), so per-phase series still
///                       sum to the fabric totals under faults.
enum class Phase : std::uint8_t {
  probe = 0,
  elected,
  initiated_wait,
  orientation_flip,
  done,
  adversary,
};

inline constexpr std::size_t kPhaseCount = 6;

constexpr std::size_t index(Phase p) { return static_cast<std::size_t>(p); }

/// Stable series-label names: the `phase` label value in the Prometheus
/// exposition.
constexpr const char* to_string(Phase p) {
  switch (p) {
    case Phase::probe: return "probe";
    case Phase::elected: return "elected";
    case Phase::initiated_wait: return "initiated_wait";
    case Phase::orientation_flip: return "orientation_flip";
    case Phase::done: return "done";
    case Phase::adversary: return "adversary";
  }
  return "probe";
}

constexpr const char* phase_name(std::size_t i) {
  return to_string(static_cast<Phase>(i));
}

}  // namespace colex::sim
