// Glue between the execution layers and the metrics registry: attaches
// registry-backed counters to a Network run (TraceRecorder-style hook
// chaining) and publishes the sim layer's plain telemetry structs
// (ExploreTelemetry, WorkerStats) as named metrics.
//
// Layering note: sim/ deliberately knows nothing about obs/ — its hooks are
// generic std::function observers and plain structs. This header is where
// the two meet, so only code that opts into telemetry pays the include.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/explore.hpp"
#include "sim/network.hpp"
#include "sim/parallel.hpp"

namespace colex::obs {

/// Attaches per-node / per-direction pulse counters and quiescence-latency
/// gauges to one network run. A run that constructs none stays
/// bit-identical and hook-free.
///
///   obs::Registry reg;
///   obs::NetworkInstrumentation<sim::Pulse> instr(reg);
///   instr.attach(net, opts);          // chains existing hooks
///   net.run(scheduler, opts);
///   instr.finish(net);                // latch end-of-run gauges
template <typename P>
class NetworkInstrumentation {
 public:
  explicit NetworkInstrumentation(Registry& registry) : registry_(registry) {}

  /// `net` must already sit in its final storage location: the phase
  /// observer samples `net.automaton(v).phase()` through a captured
  /// pointer, so moving the network after attach() would dangle it
  /// (re-resolving through the network — not caching automaton pointers —
  /// is what keeps crash/recover automaton replacement safe).
  void attach(sim::Network<P>& net, sim::BasicRunOptions<P>& opts) {
    const std::size_t n = net.size();
    // Resolve every handle up front: the hooks below touch no strings.
    sends_ = &registry_.counter("net.sends");
    sends_cw_ = &registry_.counter("net.sends.cw");
    sends_ccw_ = &registry_.counter("net.sends.ccw");
    deliveries_ = &registry_.counter("net.deliveries");
    for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
      phase_pulses_[i] =
          &registry_.counter(labeled("pulses", "phase", sim::phase_name(i)));
    }
    node_sends_.reserve(n);
    node_deliveries_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::string id = std::to_string(v);
      node_sends_.push_back(&registry_.counter("node." + id + ".sends"));
      node_deliveries_.push_back(
          &registry_.counter("node." + id + ".deliveries"));
    }
    net.chain_send_observer(
        [this, net_ptr = &net](sim::NodeId v, sim::Port, sim::Direction d) {
          sends_->inc();
          (d == sim::Direction::cw ? sends_cw_ : sends_ccw_)->inc();
          node_sends_[v]->inc();
          phase_pulses_[sim::index(net_ptr->automaton(v).phase())]->inc();
          ++observed_sends_;
          last_send_event_ = events_;
        });
    auto previous_deliver = opts.on_deliver;
    opts.on_deliver = [this, previous_deliver](sim::NodeId v, sim::Port p,
                                               sim::Direction d) {
      deliveries_->inc();
      node_deliveries_[v]->inc();
      if (previous_deliver) previous_deliver(v, p, d);
    };
    auto previous_event = opts.on_event;
    opts.on_event = [this, previous_event](sim::Network<P>& running) {
      ++events_;
      // Quiescence-detection latency: the first step at which the network
      // is observed quiescent, minus the step of the last send — how long
      // the run keeps churning after the final pulse leaves a node.
      if (quiescent_at_ == kUnset && running.quiescent()) {
        quiescent_at_ = events_;
      }
      if (previous_event) previous_event(running);
    };
  }

  /// Publishes the end-of-run gauges from the network's ground-truth
  /// counters. Call after net.run(). Pass the
  /// Theorem 1 pulse bound (n(2*IDmax+1), 0 = unknown) to also latch the
  /// bound and the remaining margin as gauges — the same numbers
  /// colex-inspect recomputes from a recorded trace.
  void finish(const sim::Network<P>& net, std::uint64_t pulse_bound = 0) {
    const auto counters = net.counters();
    // The fabric can carry pulses no node sent (spurious injections) and
    // lose pulses nodes did send (drops). Attribute the positive residual
    // to the adversary phase so the per-phase series still sum to the
    // fabric's ground-truth total on injection-heavy runs.
    if (counters.sent > observed_sends_) {
      phase_pulses_[sim::index(sim::Phase::adversary)]->inc(
          counters.sent - observed_sends_);
    }
    registry_.gauge("net.in_transit_at_end")
        .set(static_cast<double>(counters.sent - counters.consumed));
    registry_.counter("net.faults.spurious").inc(counters.injected);
    registry_.counter("net.faults.dropped").inc(counters.dropped);
    registry_.counter("net.faults.duplicated").inc(counters.duplicated);
    registry_.counter("net.faults.crashes").inc(counters.crashes);
    registry_.counter("net.faults.recoveries").inc(counters.recoveries);
    registry_.gauge("net.events").set(static_cast<double>(events_));
    if (pulse_bound != 0) {
      registry_.gauge("net.pulse_bound").set(static_cast<double>(pulse_bound));
      registry_.gauge("net.pulse_margin")
          .set(static_cast<double>(pulse_bound) -
               static_cast<double>(counters.sent));
    }
    if (quiescent_at_ != kUnset) {
      registry_.gauge("net.quiescence_latency_events")
          .set(static_cast<double>(quiescent_at_ - last_send_event_));
    }
  }

 private:
  static constexpr std::uint64_t kUnset = static_cast<std::uint64_t>(-1);

  Registry& registry_;
  Counter* sends_ = nullptr;
  Counter* sends_cw_ = nullptr;
  Counter* sends_ccw_ = nullptr;
  Counter* deliveries_ = nullptr;
  Counter* phase_pulses_[sim::kPhaseCount] = {};
  std::vector<Counter*> node_sends_;
  std::vector<Counter*> node_deliveries_;
  std::uint64_t observed_sends_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t last_send_event_ = 0;
  std::uint64_t quiescent_at_ = kUnset;
};

using PulseNetworkInstrumentation = NetworkInstrumentation<sim::Pulse>;

/// Publishes an exploration's stats + telemetry under `prefix` (e.g.
/// "explore.snapshot"): schedules/sec, visit and clone counts, frontier
/// queue depth.
inline void publish_explore(Registry& registry, const std::string& prefix,
                            const sim::ExploreStats& stats,
                            const sim::ExploreTelemetry& telemetry) {
  registry.counter(prefix + ".leaves").inc(stats.leaves);
  registry.counter(prefix + ".truncated").inc(stats.truncated);
  registry.gauge(prefix + ".max_depth")
      .track_max(static_cast<double>(stats.max_depth));
  registry.counter(prefix + ".visits").inc(telemetry.visits);
  registry.counter(prefix + ".clones").inc(telemetry.clones);
  registry.gauge(prefix + ".seconds").set(telemetry.seconds);
  registry.gauge(prefix + ".schedules_per_second")
      .set(telemetry.schedules_per_second(stats));
  if (telemetry.frontier_subtrees != 0) {
    registry.gauge(prefix + ".frontier_subtrees")
        .set(static_cast<double>(telemetry.frontier_subtrees));
  }
}

/// Publishes per-worker pool utilization under `prefix` (e.g.
/// "explore.workers"): task counts and busy time per worker, plus the
/// utilization spread (min/max busy seconds) that tells a skewed pool from
/// a balanced one.
inline void publish_worker_stats(Registry& registry, const std::string& prefix,
                                 const std::vector<sim::WorkerStats>& stats) {
  if (stats.empty()) return;
  double busy_min = stats[0].busy_seconds;
  double busy_max = stats[0].busy_seconds;
  for (std::size_t w = 0; w < stats.size(); ++w) {
    const std::string id = std::to_string(w);
    registry.counter(prefix + "." + id + ".tasks").inc(stats[w].tasks);
    registry.gauge(prefix + "." + id + ".busy_seconds")
        .set(stats[w].busy_seconds);
    busy_min = std::min(busy_min, stats[w].busy_seconds);
    busy_max = std::max(busy_max, stats[w].busy_seconds);
  }
  registry.gauge(prefix + ".count").set(static_cast<double>(stats.size()));
  registry.gauge(prefix + ".busy_seconds.min").set(busy_min);
  registry.gauge(prefix + ".busy_seconds.max").set(busy_max);
}

}  // namespace colex::obs
