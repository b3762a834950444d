// The asynchronous ring network of the content-oblivious model (paper §2),
// as a discrete-event simulation.
//
// Design notes
// ------------
// * The network is templated over the channel payload. The paper's fully
//   defective model uses `Pulse` (empty payload: all content erased by
//   noise); the classical baselines in src/baselines reuse the identical
//   machinery with content-carrying payloads, which makes the comparison
//   experiments apples-to-apples.
// * Channels are per-direction FIFO. For indistinguishable pulses this is
//   without loss of generality; cross-channel interleaving is controlled by
//   a Scheduler (see scheduler.hpp), which is where all adversarial
//   asynchrony lives. A channel keeps its in-flight items in a sim::Fifo
//   (fifo.hpp), a ring buffer that allocates on its first push and gives
//   a drained burst's memory back; content-carrying inboxes use it too.
// * Nodes are event-driven (paper §2): they act once at start and afterwards
//   only when a pulse is delivered. A delivery pushes the payload into the
//   destination node's per-port incoming queue and triggers `react`, which
//   runs the node's algorithm to local completion (the paper presents
//   algorithms as loops over non-blocking recv calls; `react` executes loop
//   iterations until no further local progress is possible). Unconsumed
//   queued pulses — e.g. CCW pulses that Algorithm 2 refuses to read until
//   rho_cw >= ID — simply wait in the queue; the paper counts them as still
//   "in transit" (footnote 2), and so do we.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::sim {

template <typename P>
class Network;

/// The interface an algorithm uses to talk to the network. Deliberately
/// minimal: non-blocking receive per port and send per port. Content
/// obliviousness is enforced by the payload type, not the interface. The
/// interface is abstract so that adapters (e.g. the Section 1.1 replication
/// transformation, co::ReplicatedAdapter) can interpose on a node's I/O.
template <typename P>
class Context {
 public:
  virtual ~Context() = default;

  /// Number of delivered-but-unconsumed payloads waiting at `p`.
  virtual std::size_t queued(Port p) const = 0;

  /// Consume one payload from the incoming queue of `p`, if available.
  virtual std::optional<P> recv(Port p) = 0;

  /// Send one payload through port `p`.
  virtual void send(Port p, P payload) = 0;

  /// Whether reactions are serialized with respect to deliveries. True on
  /// the discrete-event simulator: no payload can be enqueued while a
  /// react() is executing, so "my queues right now" is a well-defined
  /// point of the global execution. Concurrent substrates
  /// (coro::run_automata_on_coro at W >= 2) return false: a delivery can land
  /// mid-react, so a queue observed non-empty may hold payloads that in
  /// every serialized ordering of the same execution arrive only *after*
  /// this react returns. Invariant checks quantifying over the current
  /// queue contents are only sound when this is true.
  virtual bool serialized_reactions() const { return true; }

  /// Convenience overloads for pulse networks.
  void send(Port p) { send(p, P{}); }
  bool recv_pulse(Port p) { return recv(p).has_value(); }
};

/// The Context implementation backed directly by a Network.
template <typename P>
class NetworkContext final : public Context<P> {
 public:
  NetworkContext(Network<P>& net, NodeId self) : net_(net), self_(self) {}

  std::size_t queued(Port p) const override {
    return net_.inbox_size(self_, p);
  }
  std::optional<P> recv(Port p) override { return net_.consume(self_, p); }
  using Context<P>::send;
  void send(Port p, P payload) override {
    net_.send_from(self_, p, std::move(payload));
  }

 private:
  Network<P>& net_;
  NodeId self_;
};

/// An event-driven node algorithm.
template <typename P>
class Automaton {
 public:
  virtual ~Automaton() = default;

  /// Called exactly once, before any delivery is reacted to.
  virtual void start(Context<P>& ctx) = 0;

  /// Called after one payload has been enqueued at this node (and at start
  /// time right after `start`). Must run the algorithm until no further
  /// local progress is possible without new input.
  virtual void react(Context<P>& ctx) = 0;

  /// True once the node has entered a terminating state. Terminated nodes
  /// ignore all further deliveries (the network counts such deliveries as
  /// model violations — they never happen for quiescently terminating
  /// algorithms).
  virtual bool terminated() const { return false; }

  /// The algorithm phase this node is currently in (sim/types.hpp: probe,
  /// elected, initiated_wait, orientation_flip or done). Phase-aware
  /// instrumentation samples this at each send and indexes its per-phase
  /// tallies with it, so attributing a pulse costs one virtual call; the
  /// default covers automata that never decide anything.
  virtual Phase phase() const { return Phase::probe; }

  /// Deep copy of the automaton's current state. The fork-based schedule
  /// explorer (sim/explore.hpp) snapshots a frontier network — including
  /// every node's algorithm state — instead of replaying the schedule
  /// prefix, so every automaton it forks must know how to duplicate
  /// itself. The copy must share no mutable state with the original (forks
  /// are explored on different branches, possibly on different threads).
  /// The explorer forks pulse networks only; an automaton it never forks
  /// keeps this default, which refuses.
  virtual std::unique_ptr<Automaton<P>> clone() const {
    throw util::ContractViolation(
        "clone() called on an automaton that does not implement it");
  }
};

/// How a run ended (see `Network::run`). The tallies are the network's
/// cumulative counters, so a run that continues a cut one reports both.
struct RunReport {
  bool quiescent = false;       ///< no pulses in flight nor queued unconsumed
  bool stalled = false;         ///< no pulses in flight, but queued leftovers
  bool all_terminated = false;  ///< every automaton reports terminated()
  bool hit_event_limit = false;
  std::uint64_t sent = 0;        ///< payloads sent, net of drops
  std::uint64_t deliveries = 0;  ///< channel->inbox handoffs performed
  std::uint64_t deliveries_to_terminated = 0;  ///< model violations
  // Fault tallies (all zero on fault-free runs; see sim/faults.hpp). The
  // counts are ground truth from the network, not from the injector.
  std::uint64_t faults_injected = 0;    ///< spurious payloads inserted
  std::uint64_t faults_dropped = 0;     ///< payloads deleted from channels
  std::uint64_t faults_duplicated = 0;  ///< payloads doubled on channels
  std::uint64_t node_crashes = 0;
  std::uint64_t node_recoveries = 0;
  std::uint64_t deliveries_to_crashed = 0;  ///< payloads lost at dead nodes
};

/// Options for the runner.
template <typename P>
struct BasicRunOptions {
  std::uint64_t max_events = 50'000'000;
  /// If true, node starts are interleaved (pseudo)randomly with deliveries,
  /// rather than all happening up front. A node that is delivered a payload
  /// before its scheduled spontaneous start is started lazily at that
  /// moment, exactly like an event-driven node waking up on its first event.
  bool interleave_starts = false;
  /// Seeds the interleaving draws. Each run() draws afresh from it, so a
  /// run that continues a cut one before its last start may order the
  /// remaining starts differently from the uncut run.
  std::uint64_t interleave_seed = 1;
  /// Invoked after every start/delivery event with the network; property
  /// tests use this to assert invariants at every step, and fault-injection
  /// tests use it to tamper with channels mid-run.
  std::function<void(Network<P>&)> on_event;
  /// Invoked at each delivery, before the destination reacts, with the
  /// destination node and in-port. Used to record delivery traces (e.g.
  /// solitude patterns, Definition 21).
  std::function<void(NodeId, Port, Direction)> on_deliver;
};

/// Runner options for the fully defective (pulse) network.
using RunOptions = BasicRunOptions<Pulse>;

/// A node's delivered-but-unconsumed payloads at one in-port, in FIFO order.
template <typename P>
class Inbox {
 public:
  std::size_t size() const { return items_.size(); }
  void push(P payload) { items_.push_back(std::move(payload)); }
  P pop() { return items_.pop_front(); }
  void clear() { items_.clear(); }

 private:
  Fifo<P> items_;
};

/// Pulses are indistinguishable, so a pulse inbox is just a count — the
/// idea coro/spsc.hpp's PulseChannel uses.
template <>
class Inbox<Pulse> {
 public:
  std::size_t size() const { return count_; }
  void push(Pulse) { ++count_; }
  Pulse pop() {
    --count_;
    return Pulse{};
  }
  void clear() { count_ = 0; }

 private:
  std::size_t count_ = 0;
};

template <typename P>
class Network {
 public:
  /// Builds a ring of `n` nodes. `port_flips[v]` swaps node v's port labels,
  /// producing a non-oriented ring; an empty vector means oriented. Supports
  /// n = 1 (self-loop: a node's Port1 connects to its own Port0) and n = 2
  /// (two parallel edges) as first-class citizens.
  static Network ring(std::size_t n, std::vector<bool> port_flips = {}) {
    COLEX_EXPECTS(n >= 1);
    COLEX_EXPECTS(port_flips.empty() || port_flips.size() == n);
    Network net;
    net.nodes_.resize(n);
    net.channels_.reserve(2 * n);
    auto flipped = [&port_flips](NodeId v) {
      return !port_flips.empty() && port_flips[v];
    };
    for (NodeId i = 0; i < n; ++i) {
      const NodeId j = (i + 1) % n;
      // In the oriented base layout, edge i attaches to node i's Port1 and
      // node j's Port0; a flip swaps the labels at that node.
      const Port from_port = flipped(i) ? Port::p0 : Port::p1;
      const Port to_port = flipped(j) ? Port::p1 : Port::p0;
      net.add_channel(i, from_port, j, to_port, Direction::cw);
      net.add_channel(j, to_port, i, from_port, Direction::ccw);
    }
    return net;
  }

  std::size_t size() const { return nodes_.size(); }

  void set_automaton(NodeId v, std::unique_ptr<Automaton<P>> a) {
    COLEX_EXPECTS(v < nodes_.size());
    nodes_[v].automaton = std::move(a);
  }

  Automaton<P>& automaton(NodeId v) {
    COLEX_EXPECTS(v < nodes_.size() && nodes_[v].automaton != nullptr);
    return *nodes_[v].automaton;
  }

  const Automaton<P>& automaton(NodeId v) const {
    COLEX_EXPECTS(v < nodes_.size() && nodes_[v].automaton != nullptr);
    return *nodes_[v].automaton;
  }

  /// Typed access to a node's algorithm, for tests and result extraction.
  template <typename T>
  T& automaton_as(NodeId v) {
    auto* p = dynamic_cast<T*>(&automaton(v));
    COLEX_EXPECTS(p != nullptr);
    return *p;
  }

  template <typename T>
  const T& automaton_as(NodeId v) const {
    const auto* p = dynamic_cast<const T*>(&automaton(v));
    COLEX_EXPECTS(p != nullptr);
    return *p;
  }

  // --- accounting (ground truth, independent of algorithm counters) ------

  std::uint64_t total_sent() const { return counts_.sent; }

  std::uint64_t total_delivered() const { return counts_.delivered; }

  std::uint64_t total_consumed() const { return counts_.consumed; }

  /// One coherent snapshot of every cumulative counter the network keeps —
  /// the per-step observable the observability layer (src/obs) samples.
  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t consumed = 0;
    std::uint64_t injected = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t crash_lost = 0;
    std::uint64_t delivered_to_terminated = 0;  ///< swallowed (a violation)
    std::uint64_t delivered_to_crashed = 0;  ///< swallowed, within crash_lost

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  Counters counters() const { return counts_; }

  /// Payloads sent but not yet consumed by the destination algorithm;
  /// includes delivered-but-queued payloads (paper footnote 2).
  std::uint64_t in_transit() const { return counts_.sent - counts_.consumed; }

  /// In-flight on channels only (sent, not yet handed to an inbox).
  std::uint64_t in_flight() const { return counts_.sent - counts_.delivered; }

  std::size_t inbox_size(NodeId v, Port p) const {
    return nodes_[v].inbox[index(p)].size();
  }

  std::uint64_t consumed(NodeId v, Port p) const {
    return nodes_[v].consumed[index(p)];
  }

  /// Whether node v has performed its start action yet (false only while
  /// interleaved starts are pending or other nodes' starts are in flight).
  bool started(NodeId v) const { return nodes_[v].started; }

  std::uint64_t channel_count() const { return channels_.size(); }

  Direction channel_direction(std::size_t c) const {
    return channels_[c].dir;
  }

  /// Pulses currently in flight on channel `c` (used by the exhaustive
  /// schedule explorer to enumerate the adversary's choices).
  std::size_t channel_pending(std::size_t c) const {
    return channels_[c].items.size();
  }

  /// Sending endpoint (node, out-port) of channel `c`.
  std::pair<NodeId, Port> channel_source(std::size_t c) const {
    COLEX_EXPECTS(c < channels_.size());
    return {channels_[c].from_node, channels_[c].from_port};
  }

  /// Receiving endpoint (node, in-port) of channel `c`.
  std::pair<NodeId, Port> channel_target(std::size_t c) const {
    COLEX_EXPECTS(c < channels_.size());
    return {channels_[c].to_node, channels_[c].to_port};
  }

  bool quiescent() const { return in_transit() == 0; }

  // --- snapshot / fork API (the exploration engine's hot path) ------------

  /// Deep snapshot of the whole network: channel contents, inboxes,
  /// counters, and — via Automaton::clone — every node's algorithm state.
  /// The send observer is deliberately NOT copied: forks are exploration
  /// states, not traced runs, and an observer captured by reference would
  /// alias the original. The copy shares no mutable state with the source,
  /// so forks can be explored concurrently.
  // colex-lint: allow(C001) send_observer_ is deliberately not cloned: forks
  // are exploration states, not traced runs (see the doc comment above).
  Network clone() const {
    Network copy;
    copy.channels_ = channels_;
    copy.nonempty_ = nonempty_;
    copy.index_ = nullptr;  // a fork is not driven by this run's scheduler
    copy.next_seq_ = next_seq_;
    copy.stamp_ = stamp_;
    copy.counts_ = counts_;
    copy.nodes_.resize(nodes_.size());
    for (std::size_t v = 0; v < nodes_.size(); ++v) {
      const auto& src = nodes_[v];
      auto& dst = copy.nodes_[v];
      dst.automaton = src.automaton ? src.automaton->clone() : nullptr;
      dst.out_channel[0] = src.out_channel[0];
      dst.out_channel[1] = src.out_channel[1];
      dst.inbox[0] = src.inbox[0];
      dst.inbox[1] = src.inbox[1];
      dst.consumed[0] = src.consumed[0];
      dst.consumed[1] = src.consumed[1];
      dst.started = src.started;
      dst.crashed = src.crashed;
    }
    return copy;
  }

  /// Performs every pending start action in node-id order — the same order
  /// the runner uses when starts are not interleaved. Materializes the
  /// exploration tree's root state without needing a Scheduler.
  void start_all() {
    for (NodeId v = 0; v < nodes_.size(); ++v) {
      if (!nodes_[v].started) start_node(v);
    }
  }

  /// Delivers the head payload of channel `c` and runs the destination's
  /// react: one adversary step, the model's only transition besides a
  /// start. The runner and both explorers advance a network through it. A
  /// crashed or terminated destination swallows the payload; an unstarted
  /// one performs its event-driven wake-up first.
  void deliver_step(std::size_t c) {
    COLEX_EXPECTS(c < channels_.size() && !channels_[c].items.empty());
    const auto& ch = channels_[c];
    Item item = pop_item(c);
    ++counts_.delivered;
    const NodeId v = ch.to_node;
    auto& node = nodes_[v];
    if (node.crashed) {
      // A dead node swallows the payload: lost exactly like an in-queue
      // payload at crash time.
      ++counts_.delivered_to_crashed;
      ++counts_.crash_lost;
      ++counts_.consumed;
      return;
    }
    if (node.automaton->terminated()) {
      // Terminated nodes ignore pulses (paper §2). Quiescently terminating
      // algorithms never let this happen.
      ++counts_.delivered_to_terminated;
      ++counts_.consumed;
      return;
    }
    node.inbox[index(ch.to_port)].push(std::move(item.payload));
    if (!node.started) {
      start_node(v);  // its first event is this delivery
      return;
    }
    NetworkContext<P> ctx(*this, v);
    ++stamp_;
    node.automaton->react(ctx);
  }

  /// Ids of channels with payloads in flight, in ascending channel order —
  /// the adversary's current choice set, enumerated deterministically so
  /// both exploration engines branch in the same order.
  std::vector<std::size_t> pending_channels() const {
    std::vector<std::size_t> out(nonempty_.begin(), nonempty_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  // --- model-violation injection (test-only adversary beyond the model) ---

  /// Injects a payload that nobody sent into channel `c`. The paper's model
  /// forbids this; tests use it to show the algorithms' invariants detect it.
  void inject_fault(std::size_t c, P payload = P{}) {
    COLEX_EXPECTS(c < channels_.size());
    push_item(c, Item{std::move(payload), next_seq_++, stamp_});
    ++counts_.sent;  // keep conservation accounting consistent for delivery
    ++counts_.injected;
  }

  /// Drops the head payload of channel `c` (model forbids message loss).
  void drop_fault(std::size_t c) {
    COLEX_EXPECTS(c < channels_.size() && !channels_[c].items.empty());
    pop_item(c);
    ++counts_.dropped;
    // The dropped payload will never be delivered or consumed; account for
    // it so in_transit() reflects what can still move.
    --counts_.sent;
  }

  /// Duplicates the head payload of channel `c` (the copy is queued right
  /// behind the original, preserving FIFO plausibility: a flaky link
  /// re-transmits the frame it just carried).
  void duplicate_fault(std::size_t c) {
    COLEX_EXPECTS(c < channels_.size() && !channels_[c].items.empty());
    auto& items = channels_[c].items;
    items.insert_second(
        Item{P(items.front().payload), next_seq_++, items.front().stamp});
    ++counts_.sent;
    ++counts_.duplicated;
  }

  // --- node lifecycle faults (crash-stop / crash-recover) -----------------

  /// Crash-stops node `v`: its delivered-but-unconsumed queues are lost and
  /// every future delivery to it is swallowed (tallied in the RunReport)
  /// until recover_node. Only started nodes can crash; a crash before the
  /// start event is modeled as a crash at it.
  void crash_node(NodeId v) {
    COLEX_EXPECTS(v < nodes_.size() && nodes_[v].started);
    COLEX_EXPECTS(!nodes_[v].crashed);
    auto& node = nodes_[v];
    node.crashed = true;
    // Queued payloads die with the node; count them consumed so conservation
    // accounting (in_transit) keeps reflecting what can still move.
    for (auto& q : node.inbox) {
      counts_.consumed += q.size();
      counts_.crash_lost += q.size();
      q.clear();
    }
    ++counts_.crashes;
  }

  bool node_crashed(NodeId v) const {
    COLEX_EXPECTS(v < nodes_.size());
    return nodes_[v].crashed;
  }

  /// Recovers node `v` with a fresh automaton: local state is gone (the
  /// fresh instance starts from scratch) and its start action runs
  /// immediately, exactly like a reboot into the algorithm's initial state.
  void recover_node(NodeId v, std::unique_ptr<Automaton<P>> fresh) {
    COLEX_EXPECTS(v < nodes_.size() && nodes_[v].crashed);
    COLEX_EXPECTS(fresh != nullptr);
    auto& node = nodes_[v];
    node.crashed = false;
    node.automaton = std::move(fresh);
    node.consumed[0] = node.consumed[1] = 0;
    ++counts_.recoveries;
    start_node(v);
  }

  std::uint64_t injected() const { return counts_.injected; }
  std::uint64_t dropped() const { return counts_.dropped; }
  std::uint64_t duplicated() const { return counts_.duplicated; }

  /// Observer invoked at every send with (sender, out-port, direction).
  /// Used by sim::TraceRecorder; injected faults are deliberately NOT
  /// reported (nobody sent them), so trace audits catch them.
  void set_send_observer(
      std::function<void(NodeId, Port, Direction)> observer) {
    send_observer_ = std::move(observer);
  }

  /// Like set_send_observer, but preserves and chains a previously installed
  /// observer (new observer first). Lets tracing and metrics instrumentation
  /// coexist on one run without knowing about each other.
  void chain_send_observer(
      std::function<void(NodeId, Port, Direction)> observer) {
    if (!send_observer_) {
      send_observer_ = std::move(observer);
      return;
    }
    send_observer_ = [added = std::move(observer),
                      previous = std::move(send_observer_)](
                         NodeId v, Port p, Direction d) {
      added(v, p, d);
      previous(v, p, d);
    };
  }

  // --- used by Context ----------------------------------------------------

  void send_from(NodeId v, Port p, P payload) {
    auto& node = nodes_[v];
    const std::size_t c = node.out_channel[index(p)];
    push_item(c, Item{std::move(payload), next_seq_++, stamp_});
    ++counts_.sent;
    if (send_observer_) send_observer_(v, p, channels_[c].dir);
  }

  std::optional<P> consume(NodeId v, Port p) {
    auto& q = nodes_[v].inbox[index(p)];
    if (q.size() == 0) return std::nullopt;
    ++nodes_[v].consumed[index(p)];
    ++counts_.consumed;
    return q.pop();
  }

  // --- the runner ----------------------------------------------------------

  /// Drives the network under `scheduler` until nothing is in flight or
  /// `opts.max_events` events (starts and deliveries; up-front starts are
  /// free) have run. It only picks: every start goes through start_node
  /// and every delivery through deliver_step, with `on_deliver` fired
  /// before the step and `on_event` after it. Nodes that have started stay
  /// started, so calling run() again continues a run its event limit cut.
  RunReport run(Scheduler& scheduler, const BasicRunOptions<P>& opts = {}) {
    util::Xoshiro256StarStar interleave_rng(opts.interleave_seed);

    // A scheduler on the incremental protocol hears of every head change
    // from here on, starting with the channels already busy; the guard
    // leaves indexing mode however the run ends, exceptions included.
    const bool indexed = scheduler.begin_index(channels_.size());
    const IndexGuard guard(*this, indexed ? &scheduler : nullptr);
    if (indexed) {
      for (const std::size_t c : nonempty_) scheduler.head_changed(view_of(c));
    }

    // Nodes yet to start, highest id first, plus each one's position in
    // the list, so a start removes it by O(1) swap-and-pop.
    std::vector<NodeId> unstarted;
    std::vector<std::size_t> unstarted_pos(nodes_.size(), kNoPos);
    for (NodeId v = nodes_.size(); v-- > 0;) {
      if (nodes_[v].started) continue;
      unstarted_pos[v] = unstarted.size();
      unstarted.push_back(v);
    }
    auto forget = [&](NodeId v) {
      const std::size_t k = unstarted_pos[v];
      if (k == kNoPos) return;
      const NodeId moved = unstarted.back();
      unstarted[k] = moved;
      unstarted_pos[moved] = k;
      unstarted.pop_back();
      unstarted_pos[v] = kNoPos;
    };
    auto start = [&](NodeId v) {
      forget(v);
      start_node(v);
      if (opts.on_event) opts.on_event(*this);
    };

    if (!opts.interleave_starts) {
      while (!unstarted.empty()) start(unstarted.back());
    }

    std::uint64_t events = 0;
    std::vector<ChannelView> pending;
    for (; events < opts.max_events; ++events) {
      // Optionally interleave a spontaneous node start with deliveries.
      if (!unstarted.empty() &&
          (in_flight() == 0 || interleave_rng.bernoulli(0.5))) {
        start(unstarted[interleave_rng.below(unstarted.size())]);
        continue;
      }

      if (nonempty_.empty()) break;
      std::size_t c = 0;
      if (indexed) {
        c = scheduler.pick_indexed(nonempty_);
      } else {
        pending.clear();
        for (const std::size_t b : nonempty_) pending.push_back(view_of(b));
        c = scheduler.pick(pending);
      }
      COLEX_ASSERT(c < channels_.size() && !channels_[c].items.empty());
      const auto& ch = channels_[c];
      const NodeId v = ch.to_node;
      if (opts.on_deliver) opts.on_deliver(v, ch.to_port, ch.dir);
      deliver_step(c);
      forget(v);  // the delivery may have woken it
      if (opts.on_event) opts.on_event(*this);
    }

    RunReport report;
    report.hit_event_limit = events == opts.max_events;
    report.sent = counts_.sent;
    report.deliveries = counts_.delivered;
    report.deliveries_to_terminated = counts_.delivered_to_terminated;
    report.faults_injected = counts_.injected;
    report.faults_dropped = counts_.dropped;
    report.faults_duplicated = counts_.duplicated;
    report.node_crashes = counts_.crashes;
    report.node_recoveries = counts_.recoveries;
    report.deliveries_to_crashed = counts_.delivered_to_crashed;
    // The loop ends early only with nothing in flight and so, by the start
    // rule above, every node started.
    report.quiescent = in_transit() == 0 && !report.hit_event_limit;
    report.stalled =
        !report.quiescent && in_flight() == 0 && !report.hit_event_limit;
    report.all_terminated =
        std::all_of(nodes_.begin(), nodes_.end(), [](const NodeState& node) {
          return node.automaton != nullptr && node.automaton->terminated();
        });
    return report;
  }

 private:
  struct Item {
    [[no_unique_address]] P payload;  // a Pulse takes no room
    std::uint64_t seq;
    std::uint64_t stamp;
  };
  struct ChannelState {
    NodeId from_node{};
    Port from_port{};
    NodeId to_node{};
    Port to_port{};
    Direction dir{};
    Fifo<Item> items;
    std::size_t nonempty_pos = kNoPos;  // index into nonempty_, or kNoPos
  };
  struct NodeState {
    std::unique_ptr<Automaton<P>> automaton;
    std::size_t out_channel[2] = {0, 0};
    Inbox<P> inbox[2];
    std::uint64_t consumed[2] = {0, 0};
    bool started = false;
    bool crashed = false;
  };

  void add_channel(NodeId from, Port fp, NodeId to, Port tp, Direction dir) {
    ChannelState ch;
    ch.from_node = from;
    ch.from_port = fp;
    ch.to_node = to;
    ch.to_port = tp;
    ch.dir = dir;
    nodes_[from].out_channel[index(fp)] = channels_.size();
    channels_.push_back(std::move(ch));
  }

  /// Runs node v's start action and its first react as one event; the
  /// sends of both share one stamp. Every start goes through here: the
  /// runner's, start_all's, a delivery's wake-up and a recovery's reboot.
  void start_node(NodeId v) {
    auto& node = nodes_[v];
    NetworkContext<P> ctx(*this, v);
    ++stamp_;
    node.started = true;
    node.automaton->start(ctx);
    node.automaton->react(ctx);
  }

  // Incremental index of channels with pulses in flight, so each runner
  // step costs O(#nonempty channels) instead of O(#channels). Every channel
  // push and pop goes through push_item/pop_item, which keep this set and
  // the indexing scheduler (if any) current.
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  ChannelView view_of(std::size_t c) const {
    const auto& ch = channels_[c];
    if (ch.items.empty()) return ChannelView{c, 0, 0, 0, ch.dir};
    return ChannelView{c, ch.items.size(), ch.items.front().seq,
                       ch.items.front().stamp, ch.dir};
  }

  void push_item(std::size_t c, Item item) {
    auto& ch = channels_[c];
    ch.items.push_back(std::move(item));
    if (ch.nonempty_pos != kNoPos) return;  // the head did not change
    ch.nonempty_pos = nonempty_.size();
    nonempty_.push_back(c);
    if (index_ != nullptr) index_->head_changed(view_of(c));
  }

  Item pop_item(std::size_t c) {
    auto& ch = channels_[c];
    Item item = ch.items.pop_front();
    if (ch.items.empty()) {
      const std::size_t pos = ch.nonempty_pos;
      const std::size_t moved = nonempty_.back();
      nonempty_[pos] = moved;
      channels_[moved].nonempty_pos = pos;
      nonempty_.pop_back();
      ch.nonempty_pos = kNoPos;
    }
    if (index_ != nullptr) index_->head_changed(view_of(c));
    return item;
  }

  /// Points index_ at the run's indexing scheduler (or null) for one run.
  class IndexGuard {
   public:
    IndexGuard(Network& net, Scheduler* scheduler) : net_(net) {
      net_.index_ = scheduler;
    }
    ~IndexGuard() { net_.index_ = nullptr; }
    IndexGuard(const IndexGuard&) = delete;
    IndexGuard& operator=(const IndexGuard&) = delete;

   private:
    Network& net_;
  };

  std::vector<NodeState> nodes_;
  std::vector<ChannelState> channels_;
  std::vector<std::size_t> nonempty_;
  Scheduler* index_ = nullptr;  ///< told of head changes during run()
  std::function<void(NodeId, Port, Direction)> send_observer_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t stamp_ = 0;  // event step counter; sends in one react share it
  Counters counts_;
};

/// The fully defective network of the paper: channels carry only pulses.
using PulseNetwork = Network<Pulse>;
using PulseContext = Context<Pulse>;
using PulseAutomaton = Automaton<Pulse>;

}  // namespace colex::sim
