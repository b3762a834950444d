// Execution tracing: records every send and delivery of a run as a
// structured event stream, and audits the stream against the model's
// conservation laws (every delivery is preceded by a matching send on the
// same channel; per-channel FIFO order; no channel ever over-delivers).
// The audit is deliberately independent of the Network's own counters, so
// it cross-checks the simulator itself.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/network.hpp"

namespace colex::sim {

struct TraceEvent {
  enum class Kind {
    send,
    deliver,
    // Injected faults are first-class events (sim/faults.hpp): a trace of a
    // faulty run is self-contained, and the audit can tell recorded
    // tampering apart from silent (unrecorded) tampering.
    fault_drop,       ///< a payload was deleted from a channel
    fault_duplicate,  ///< the head payload of a channel was doubled
    fault_spurious,   ///< a payload nobody sent was inserted
    fault_crash,      ///< a node crash-stopped
    fault_recover,    ///< a node rebooted into a fresh automaton
    fault_corrupt,    ///< node/channel state was adversarially overwritten
  };
  Kind kind = Kind::send;
  /// sender (send / channel faults) or receiver (deliver) or the faulted
  /// node (crash / recover / corrupt).
  NodeId node = 0;
  Port port = Port::p0;
  Direction dir = Direction::cw;  ///< physical direction of travel
  std::uint64_t index = 0;        ///< position in the event stream

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

constexpr const char* to_string(TraceEvent::Kind k) {
  switch (k) {
    case TraceEvent::Kind::send: return "send";
    case TraceEvent::Kind::deliver: return "deliver";
    case TraceEvent::Kind::fault_drop: return "fault-drop";
    case TraceEvent::Kind::fault_duplicate: return "fault-duplicate";
    case TraceEvent::Kind::fault_spurious: return "fault-spurious";
    case TraceEvent::Kind::fault_crash: return "fault-crash";
    case TraceEvent::Kind::fault_recover: return "fault-recover";
    case TraceEvent::Kind::fault_corrupt: return "fault-corrupt";
  }
  return "?";
}

/// Streams one event as `#index kind node= port= dir=`. gtest prints a
/// TraceEvent through this when an EXPECT_EQ on traces fails; the
/// colex-trace-v1 exporter (obs/export.cpp) writes its own JSON instead.
inline std::ostream& operator<<(std::ostream& os, const TraceEvent& e) {
  os << "#" << e.index << " " << to_string(e.kind) << " node=" << e.node
     << " port=" << sim::index(e.port) << " dir=" << to_string(e.dir);
  return os;
}

inline std::string to_string(const TraceEvent& e) {
  // Plain string appends instead of an ostringstream: no stream state, no
  // per-event stringbuf allocation — one reserve covers the typical event.
  std::string out;
  out.reserve(48);
  out += '#';
  out += std::to_string(e.index);
  out += ' ';
  out += to_string(e.kind);
  out += " node=";
  out += std::to_string(e.node);
  out += " port=";
  out += std::to_string(sim::index(e.port));
  out += " dir=";
  out += to_string(e.dir);
  return out;
}

/// Hooks into a run's options and collects the event stream.
///
///   TraceRecorder trace;
///   sim::RunOptions opts;
///   trace.attach(net, opts);         // chains any hooks already set
///   net.run(scheduler, opts);
///   trace.audit();                   // empty string == clean
template <typename P>
class BasicTraceRecorder {
 public:
  /// Wires this recorder into `net` and `opts`. Previously installed
  /// on_deliver hooks (and the network's send observer) are preserved and
  /// chained.
  void attach(Network<P>& net, BasicRunOptions<P>& opts) {
    auto previous_deliver = opts.on_deliver;
    opts.on_deliver = [this, previous_deliver](NodeId v, Port p,
                                               Direction d) {
      events_.push_back(TraceEvent{TraceEvent::Kind::deliver, v, p, d,
                                   static_cast<std::uint64_t>(
                                       events_.size())});
      if (previous_deliver) previous_deliver(v, p, d);
    };
    net.set_send_observer([this](NodeId v, Port p, Direction d) {
      events_.push_back(TraceEvent{TraceEvent::Kind::send, v, p, d,
                                   static_cast<std::uint64_t>(
                                       events_.size())});
    });
  }

  /// Appends a fault event to the stream. Called by sim::FaultInjector via
  /// its fault observer; `node`/`port` are the channel's *sending* endpoint
  /// for channel faults, the faulted node itself for lifecycle faults.
  void record_fault(TraceEvent::Kind kind, NodeId node, Port port,
                    Direction dir) {
    events_.push_back(TraceEvent{kind, node, port, dir,
                                 static_cast<std::uint64_t>(events_.size())});
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  std::uint64_t count(TraceEvent::Kind kind) const {
    std::uint64_t n = 0;
    for (const auto& e : events_) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

  std::uint64_t sends() const { return count(TraceEvent::Kind::send); }

  std::uint64_t deliveries() const {
    return count(TraceEvent::Kind::deliver);
  }

  /// Audits the stream against the model: at no point may a channel
  /// (identified by sender node+port) have delivered more pulses than were
  /// sent on it. Recorded fault events are accounted for (a spurious or
  /// duplicated payload raises the channel balance, a drop lowers it), so a
  /// faithfully recorded faulty run audits clean while *silent* tampering
  /// still trips the check. Returns an empty string when clean, else a
  /// diagnostic. `wiring(recv_node, recv_port)` must map a delivery
  /// endpoint back to the sending endpoint; for the standard ring use
  /// `ring_wiring(net)`.
  template <typename Wiring>
  std::string audit(Wiring&& wiring) const {
    // Flat per-channel balances, indexed node*2+port (channels are dense in
    // node IDs); this runs once per trace event, so no tree lookups here.
    std::vector<std::int64_t> balance;
    auto slot = [&balance](NodeId node, Port port) -> std::int64_t& {
      const std::size_t i =
          node * 2 + static_cast<std::size_t>(sim::index(port));
      if (i >= balance.size()) balance.resize(i + 1, 0);
      return balance[i];
    };
    for (const auto& e : events_) {
      switch (e.kind) {
        case TraceEvent::Kind::send:
        case TraceEvent::Kind::fault_spurious:
        case TraceEvent::Kind::fault_duplicate:
          ++slot(e.node, e.port);
          break;
        case TraceEvent::Kind::fault_drop: {
          auto& b = slot(e.node, e.port);
          if (b <= 0) {
            return "fault-drop on empty channel from node " +
                   std::to_string(e.node) + " port " +
                   std::to_string(sim::index(e.port)) + " (event " +
                   std::to_string(e.index) + ")";
          }
          --b;
          break;
        }
        case TraceEvent::Kind::deliver: {
          const auto from = wiring(e.node, e.port);
          auto& b = slot(from.first, from.second);
          if (b <= 0) {
            return "channel from node " + std::to_string(from.first) +
                   " port " + std::to_string(sim::index(from.second)) +
                   " delivered more than it sent (event " +
                   std::to_string(e.index) + ")";
          }
          --b;
          break;
        }
        case TraceEvent::Kind::fault_crash:
        case TraceEvent::Kind::fault_recover:
        case TraceEvent::Kind::fault_corrupt:
          break;  // lifecycle/state faults do not move payloads on channels
      }
    }
    return {};
  }

 private:
  std::vector<TraceEvent> events_;
};

using TraceRecorder = BasicTraceRecorder<Pulse>;

/// Wiring function for the standard ring builder: maps a delivery endpoint
/// (receiver node+port) to the sender endpoint on the same edge.
inline auto ring_wiring(std::size_t n, const std::vector<bool>& flips = {}) {
  return [n, flips](NodeId v, Port p) -> std::pair<NodeId, Port> {
    auto flipped = [&flips](NodeId u) {
      return !flips.empty() && flips[u];
    };
    // In the builder's layout, node v's "toward v+1" attachment is Port1
    // unless flipped; receiving there means the sender is v+1 on its
    // "toward v" attachment, and vice versa.
    const Port toward_next = flipped(v) ? Port::p0 : Port::p1;
    if (p == toward_next) {
      const NodeId sender = (v + 1) % n;
      return {sender, flipped(sender) ? Port::p1 : Port::p0};
    }
    const NodeId sender = (v + n - 1) % n;
    return {sender, flipped(sender) ? Port::p0 : Port::p1};
  };
}

}  // namespace colex::sim
