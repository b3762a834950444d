#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "colex.hpp"

namespace colex::sim {
namespace {

/// Sends one pulse from `out` at start; counts everything it receives.
class SendOnce final : public PulseAutomaton {
 public:
  explicit SendOnce(Port out) : out_(out) {}
  void start(PulseContext& ctx) override { ctx.send(out_); }
  void react(PulseContext& ctx) override {
    while (ctx.recv_pulse(Port::p0)) ++received_[0];
    while (ctx.recv_pulse(Port::p1)) ++received_[1];
  }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<SendOnce>(*this);
  }
  int received(Port p) const { return received_[index(p)]; }

 private:
  Port out_;
  int received_[2] = {0, 0};
};

/// Forwards pulses from each port out the opposite port, up to a hop budget.
class Relay final : public PulseAutomaton {
 public:
  explicit Relay(int budget) : budget_(budget) {}
  void start(PulseContext&) override {}
  void react(PulseContext& ctx) override {
    for (Port in : {Port::p0, Port::p1}) {
      while (ctx.recv_pulse(in)) {
        ++consumed_;
        if (budget_ > 0) {
          --budget_;
          ctx.send(opposite(in));
        }
      }
    }
  }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<Relay>(*this);
  }
  int consumed() const { return consumed_; }

 private:
  int budget_;
  int consumed_ = 0;
};

/// Never consumes anything: its inbox fills up and the run stalls.
class Sink final : public PulseAutomaton {
 public:
  void start(PulseContext&) override {}
  void react(PulseContext&) override {}
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<Sink>(*this);
  }
};

/// Terminates immediately after start (used to exercise the violation
/// accounting for deliveries to terminated nodes).
class InstantTerminator final : public PulseAutomaton {
 public:
  void start(PulseContext&) override { done_ = true; }
  void react(PulseContext&) override {}
  bool terminated() const override { return done_; }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<InstantTerminator>(*this);
  }

 private:
  bool done_ = false;
};

/// Sends `burst` pulses out of Port1 at start, consumes everything later.
class Burster final : public PulseAutomaton {
 public:
  explicit Burster(int burst) : burst_(burst) {}
  void start(PulseContext& ctx) override {
    for (int i = 0; i < burst_; ++i) ctx.send(Port::p1);
  }
  void react(PulseContext& ctx) override {
    while (ctx.recv_pulse(Port::p0)) ++received_;
    while (ctx.recv_pulse(Port::p1)) ++received_;
  }
  std::unique_ptr<PulseAutomaton> clone() const override {
    return std::make_unique<Burster>(*this);
  }
  int received() const { return received_; }

 private:
  int burst_;
  int received_ = 0;
};

TEST(RingWiring, OrientedPort1ReachesNextNodesPort0) {
  auto net = PulseNetwork::ring(3);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(2, std::make_unique<SendOnce>(Port::p1));
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  EXPECT_EQ(report.sent, 3u);
  // Each node sent one CW pulse; each node received exactly one at Port0.
  for (NodeId v = 0; v < 3; ++v) {
    const auto& a = net.automaton_as<SendOnce>(v);
    EXPECT_EQ(a.received(Port::p0), 1) << "node " << v;
    EXPECT_EQ(a.received(Port::p1), 0) << "node " << v;
  }
}

TEST(RingWiring, SelfLoopSingleNode) {
  auto net = PulseNetwork::ring(1);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  // The pulse sent out of Port1 must come back to the node's own Port0.
  EXPECT_EQ(net.automaton_as<SendOnce>(0).received(Port::p0), 1);
  EXPECT_EQ(net.automaton_as<SendOnce>(0).received(Port::p1), 0);
}

TEST(RingWiring, TwoNodeRingHasParallelEdges) {
  auto net = PulseNetwork::ring(2);
  EXPECT_EQ(net.channel_count(), 4u);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p0));
  GlobalFifoScheduler sched;
  net.run(sched);
  // Node 0 sent CW (edge 0) -> node 1's Port0. Node 1 sent out its Port0,
  // which is attached to edge 0 as well -> node 0's Port1.
  EXPECT_EQ(net.automaton_as<SendOnce>(1).received(Port::p0), 1);
  EXPECT_EQ(net.automaton_as<SendOnce>(0).received(Port::p1), 1);
}

TEST(RingWiring, PortFlipSwapsLabels) {
  // Node 1 is flipped: the CW pulse from node 0 arrives at node 1's Port1.
  auto net = PulseNetwork::ring(3, {false, true, false});
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(1, std::make_unique<Sink>());
  net.set_automaton(2, std::make_unique<Sink>());
  GlobalFifoScheduler sched;
  net.run(sched);
  EXPECT_EQ(net.inbox_size(1, Port::p1), 1u);
  EXPECT_EQ(net.inbox_size(1, Port::p0), 0u);
}

TEST(RingWiring, FlippedNodeSendsBackwardsOnPort1) {
  // Node 1 flipped: its Port1 is attached to the edge toward node 0.
  auto net = PulseNetwork::ring(3, {false, true, false});
  net.set_automaton(0, std::make_unique<Sink>());
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p1));
  net.set_automaton(2, std::make_unique<Sink>());
  GlobalFifoScheduler sched;
  net.run(sched);
  EXPECT_EQ(net.inbox_size(0, Port::p1), 1u);  // arrived back at node 0
  EXPECT_EQ(net.inbox_size(2, Port::p0), 0u);
}

TEST(RingWiring, RejectsZeroNodes) {
  EXPECT_THROW(PulseNetwork::ring(0), util::ContractViolation);
}

TEST(RingWiring, RejectsWrongFlipVectorSize) {
  EXPECT_THROW(PulseNetwork::ring(3, {true}), util::ContractViolation);
}

TEST(Accounting, SentInTransitConsumed) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(5));
  net.set_automaton(1, std::make_unique<Sink>());
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_EQ(report.sent, 5u);
  EXPECT_EQ(net.total_sent(), 5u);
  EXPECT_EQ(net.in_flight(), 0u);    // all delivered into node 1's inbox
  EXPECT_EQ(net.in_transit(), 5u);   // but never consumed
  EXPECT_FALSE(report.quiescent);
  EXPECT_TRUE(report.stalled);
}

TEST(Accounting, QuiescentWhenAllConsumed) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(3));
  net.set_automaton(1, std::make_unique<Burster>(2));
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  EXPECT_FALSE(report.stalled);
  EXPECT_EQ(net.in_transit(), 0u);
  EXPECT_EQ(net.automaton_as<Burster>(0).received() +
                net.automaton_as<Burster>(1).received(),
            5);
}

TEST(Accounting, RelayBudgetedForwardingTerminatesQuiescent) {
  auto net = PulseNetwork::ring(4);
  net.set_automaton(0, std::make_unique<Burster>(1));
  for (NodeId v = 1; v < 4; ++v) {
    net.set_automaton(v, std::make_unique<Relay>(10));
  }
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_TRUE(report.quiescent);
  // 1 initial + up to 3 relays before returning to node 0 (which consumes).
  EXPECT_EQ(report.sent, 4u);
  EXPECT_EQ(net.automaton_as<Burster>(0).received(), 1);
}

TEST(Violations, DeliveryToTerminatedNodeIsCounted) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(2));
  net.set_automaton(1, std::make_unique<InstantTerminator>());
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_EQ(report.deliveries_to_terminated, 2u);
  // Ignored pulses are swallowed, so the network still drains.
  EXPECT_TRUE(report.quiescent);
}

TEST(Violations, InjectFaultAddsForeignPulse) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(0));
  net.set_automaton(1, std::make_unique<Burster>(0));
  net.inject_fault(0);
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  EXPECT_EQ(net.injected(), 1u);
  EXPECT_EQ(report.deliveries, 1u);
  EXPECT_EQ(net.automaton_as<Burster>(1).received(), 1);
}

TEST(Violations, DropFaultRemovesPulse) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(1));
  net.set_automaton(1, std::make_unique<Burster>(0));
  // Run manually: start fills channel 0, then drop before delivery.
  // Easiest deterministic route: drop right after sends by running with an
  // on_event hook is racy with starts, so instead drop after construction by
  // pre-loading the channel via inject and dropping it again.
  net.inject_fault(0);
  net.drop_fault(0);
  EXPECT_EQ(net.dropped(), 1u);
  GlobalFifoScheduler sched;
  const auto report = net.run(sched);
  // Only the Burster's own start pulse remains to be delivered.
  EXPECT_EQ(report.deliveries, 1u);
  EXPECT_TRUE(report.quiescent);
}

TEST(Runner, EventLimitIsReported) {
  // Two relays with effectively unbounded budget bounce pulses forever.
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<Burster>(1));
  net.set_automaton(1, std::make_unique<Relay>(1 << 30));
  // Node 0 consumes and does not forward, so give node 0 a Relay too.
  net.set_automaton(0, std::make_unique<Relay>(1 << 30));
  net.inject_fault(0);  // seed one circulating pulse
  RunOptions opts;
  opts.max_events = 100;
  GlobalFifoScheduler sched;
  const auto report = net.run(sched, opts);
  EXPECT_TRUE(report.hit_event_limit);
  EXPECT_FALSE(report.quiescent);
}

TEST(Runner, InterleavedStartsStillDeliverEverything) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto net = PulseNetwork::ring(5);
    for (NodeId v = 0; v < 5; ++v) {
      net.set_automaton(v, std::make_unique<SendOnce>(Port::p1));
    }
    RunOptions opts;
    opts.interleave_starts = true;
    opts.interleave_seed = seed;
    GlobalFifoScheduler sched;
    const auto report = net.run(sched, opts);
    EXPECT_TRUE(report.quiescent);
    EXPECT_EQ(report.sent, 5u);
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(net.automaton_as<SendOnce>(v).received(Port::p0), 1);
    }
  }
}

TEST(Runner, OnEventFiresPerEvent) {
  auto net = PulseNetwork::ring(3);
  for (NodeId v = 0; v < 3; ++v) {
    net.set_automaton(v, std::make_unique<SendOnce>(Port::p1));
  }
  int events = 0;
  RunOptions opts;
  opts.on_event = [&events](PulseNetwork&) { ++events; };
  GlobalFifoScheduler sched;
  const auto report = net.run(sched, opts);
  EXPECT_EQ(events, 3 + 3);  // 3 starts + 3 deliveries
  EXPECT_EQ(report.deliveries, 3u);
}

TEST(Runner, OnDeliverReportsPortAndDirection) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<SendOnce>(Port::p1));  // CW
  net.set_automaton(1, std::make_unique<SendOnce>(Port::p0));  // CCW
  std::vector<Direction> dirs;
  RunOptions opts;
  opts.on_deliver = [&dirs](NodeId, Port, Direction d) { dirs.push_back(d); };
  GlobalFifoScheduler sched;
  net.run(sched, opts);
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_EQ(dirs[0], Direction::cw);
  EXPECT_EQ(dirs[1], Direction::ccw);
}

TEST(Network, AutomatonAsRejectsWrongType) {
  auto net = PulseNetwork::ring(1);
  net.set_automaton(0, std::make_unique<Sink>());
  EXPECT_THROW(net.automaton_as<Relay>(0), util::ContractViolation);
}


// --- payload-generic behaviour (used by the baselines) ------------------

struct NumberedMsg {
  int value = 0;
};

class NumberSink final : public Automaton<NumberedMsg> {
 public:
  void start(Context<NumberedMsg>&) override {}
  void react(Context<NumberedMsg>& ctx) override {
    while (auto m = ctx.recv(Port::p0)) received_.push_back(m->value);
  }
  std::unique_ptr<Automaton<NumberedMsg>> clone() const override {
    return std::make_unique<NumberSink>(*this);
  }
  const std::vector<int>& received() const { return received_; }

 private:
  std::vector<int> received_;
};

class NumberSource final : public Automaton<NumberedMsg> {
 public:
  explicit NumberSource(int count) : count_(count) {}
  void start(Context<NumberedMsg>& ctx) override {
    for (int i = 0; i < count_; ++i) ctx.send(Port::p1, NumberedMsg{i});
  }
  void react(Context<NumberedMsg>& ctx) override {
    while (ctx.recv(Port::p0)) {
    }
  }
  std::unique_ptr<Automaton<NumberedMsg>> clone() const override {
    return std::make_unique<NumberSource>(*this);
  }

 private:
  int count_;
};

TEST(TypedPayloads, ContentSurvivesAndChannelsAreFifo) {
  // The same network machinery with content-carrying payloads: values must
  // arrive intact and in per-channel FIFO order under every scheduler.
  for (auto& named : standard_schedulers(2)) {
    auto net = Network<NumberedMsg>::ring(2);
    net.set_automaton(0, std::make_unique<NumberSource>(10));
    net.set_automaton(1, std::make_unique<NumberSink>());
    const auto report = net.run(*named.scheduler);
    ASSERT_TRUE(report.quiescent) << named.name;
    const auto& got = net.automaton_as<NumberSink>(1).received();
    ASSERT_EQ(got.size(), 10u) << named.name;
    for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i) << named.name;
  }
}

TEST(TypedPayloads, UmbrellaHeaderCompiles) {
  // colex.hpp must pull in the whole public API (checked by the include at
  // the top of this translation unit being replaced transitively; here we
  // just exercise a couple of symbols from distant modules).
  EXPECT_EQ(co::theorem1_pulses(2, 2), 10u);
  EXPECT_EQ(colib::encode_u64(5).size(), 3u);
}

// ---------------------------------------------------------------------------
// The channel queue (sim/fifo.hpp): a ring buffer that wraps, grows by
// doubling and gives a drained burst's buffer back.
// ---------------------------------------------------------------------------

TEST(ChannelQueue, FifoOrderHoldsAcrossWrapAroundAndGrowth) {
  // Random pushes, second-place inserts and pops against std::deque. The
  // queue fills towards a target size redrawn every 50 steps, so its head
  // walks round buffers of every size from 4 to 512 slots, and it grows
  // while its items wrap.
  util::Xoshiro256StarStar rng(3);
  Fifo<int> fifo;
  std::deque<int> reference;
  int next = 0;
  std::size_t target = 0;
  std::size_t grown_while_wrapped = 0;
  for (int step = 0; step < 20'000; ++step) {
    if (step % 50 == 0) target = rng.below(300);
    if (!reference.empty() && rng.below(10) == 0) {
      fifo.insert_second(next);
      reference.insert(reference.begin() + 1, next++);
    } else if (reference.size() < target) {
      const std::size_t capacity = fifo.capacity();
      const bool wrapped = fifo.size() > 1 && &fifo[0] > &fifo[fifo.size() - 1];
      fifo.push_back(next);
      reference.push_back(next++);
      if (wrapped && fifo.capacity() != capacity) ++grown_while_wrapped;
    } else if (!reference.empty()) {
      ASSERT_EQ(fifo.pop_front(), reference.front()) << "step " << step;
      reference.pop_front();
    }
    ASSERT_EQ(fifo.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(fifo.front(), reference.front());
    }
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(fifo[i], reference[i]) << "item " << i;
  }
  EXPECT_GT(grown_while_wrapped, 0u);
}

TEST(ChannelQueue, DuplicateFaultQueuesTheCopyBehindTheHeadAtEveryOffset) {
  // The head starts at every slot of an 8-slot buffer, with the channel at
  // every fill up to a full buffer, so the copy lands across the wrap point
  // and, on a full buffer, in one that must first grow.
  for (int offset = 0; offset < 8; ++offset) {
    for (int fill = 1; fill <= 8; ++fill) {
      auto net = Network<NumberedMsg>::ring(2);
      net.set_automaton(0, std::make_unique<NumberSource>(0));
      net.set_automaton(1, std::make_unique<NumberSink>());
      net.start_all();
      // Five items grow the buffer to 8 slots, which it keeps when drained;
      // then the head moves `offset` slots on.
      const int passed = 5 + offset;
      for (int k = 0; k < passed; ++k) {
        net.inject_fault(0, NumberedMsg{-1});
        if (k >= 4) net.deliver_step(0);
      }
      for (int k = 0; k < 4; ++k) net.deliver_step(0);
      for (int k = 0; k < fill; ++k) net.inject_fault(0, NumberedMsg{k});
      net.duplicate_fault(0);
      while (net.channel_pending(0) != 0) net.deliver_step(0);
      std::vector<int> expected(static_cast<std::size_t>(passed), -1);
      expected.push_back(0);
      for (int k = 0; k < fill; ++k) expected.push_back(k);
      EXPECT_EQ(net.automaton_as<NumberSink>(1).received(), expected)
          << "offset " << offset << " fill " << fill;
    }
  }
}

TEST(ChannelQueue, DrainedBurstGivesItsBufferBack) {
  Fifo<int> fifo;
  EXPECT_EQ(fifo.capacity(), 0u);  // nothing allocated before the first push
  // Algorithm 2 relays a CCW backlog of up to 650 pulses in one react.
  for (int k = 0; k < 650; ++k) fifo.push_back(k);
  EXPECT_EQ(fifo.capacity(), 1024u);
  for (int k = 0; k < 649; ++k) EXPECT_EQ(fifo.pop_front(), k);
  EXPECT_EQ(fifo.capacity(), 1024u);  // kept while anything is queued
  EXPECT_EQ(fifo.pop_front(), 649);
  EXPECT_EQ(fifo.capacity(), 0u);
  // A queue within the retained size keeps its buffer when it drains.
  for (int k = 0; k < 9; ++k) fifo.push_back(k);
  while (!fifo.empty()) fifo.pop_front();
  EXPECT_EQ(fifo.capacity(), Fifo<int>::kRetained);
}

TEST(ChannelQueue, CloneOfWrappedChannelsDeliversTheSameTrace) {
  auto net = PulseNetwork::ring(3);
  for (NodeId v = 0; v < 3; ++v) {
    net.set_automaton(v, std::make_unique<Relay>(60));
  }
  net.start_all();
  // Walk each channel's head part-way round its buffer, then queue more
  // behind it, so the clone copies channels whose items wrap.
  for (std::size_t c = 0; c < net.channel_count(); ++c) {
    for (std::size_t k = 0; k < 3 + c; ++k) net.inject_fault(c);
    for (std::size_t k = 0; k < 2 + c; ++k) net.deliver_step(c);
    for (std::size_t k = 0; k < 3; ++k) net.inject_fault(c);
  }
  net.duplicate_fault(2);
  auto fork = net.clone();
  // Global FIFO follows the items' send seqs, so it sees their order.
  auto traced = [](PulseNetwork& n) {
    RunOptions opts;
    TraceRecorder trace;
    trace.attach(n, opts);
    GlobalFifoScheduler scheduler;
    const RunReport report = n.run(scheduler, opts);
    n.set_send_observer({});  // the recorder dies with this frame
    EXPECT_TRUE(report.quiescent);
    return trace.events();
  };
  const auto original = traced(net);
  EXPECT_FALSE(original.empty());
  EXPECT_EQ(traced(fork), original);
  EXPECT_TRUE(fork.counters() == net.counters());
}

TEST(ChannelQueue, CloneCopiesWrappedItemsInOrder) {
  auto net = Network<NumberedMsg>::ring(2);
  net.set_automaton(0, std::make_unique<NumberSource>(0));
  net.set_automaton(1, std::make_unique<NumberSink>());
  net.start_all();
  for (int k = 0; k < 3; ++k) {
    net.inject_fault(0, NumberedMsg{-1});
    net.deliver_step(0);
  }
  for (int k = 0; k < 4; ++k) net.inject_fault(0, NumberedMsg{k});  // wraps
  auto fork = net.clone();
  for (auto* n : {&net, &fork}) {
    while (n->channel_pending(0) != 0) n->deliver_step(0);
    EXPECT_EQ(n->automaton_as<NumberSink>(1).received(),
              (std::vector<int>{-1, -1, -1, 0, 1, 2, 3}));
  }
}

/// Keeps Automaton::clone()'s default: nothing forks it.
class Unforkable final : public PulseAutomaton {
 public:
  void start(PulseContext&) override {}
  void react(PulseContext&) override {}
};

TEST(NetworkClone, AutomatonWithoutCloneRefusesToFork) {
  auto net = PulseNetwork::ring(2);
  for (NodeId v = 0; v < 2; ++v) {
    net.set_automaton(v, std::make_unique<Unforkable>());
  }
  net.start_all();
  EXPECT_THROW(net.clone(), util::ContractViolation);
}

}  // namespace
}  // namespace colex::sim
