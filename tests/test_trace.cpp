// Tests for the execution tracing and conservation-audit facility.
#include <gtest/gtest.h>

#include <memory>

#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "helpers.hpp"
#include "sim/depth.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "util/contracts.hpp"

namespace colex::sim {
namespace {

TEST(Trace, RecordsEverySendAndDelivery) {
  const std::vector<std::uint64_t> ids{2, 4, 1};
  auto net = PulseNetwork::ring(ids.size());
  for (NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }
  TraceRecorder trace;
  RunOptions opts;
  trace.attach(net, opts);
  GlobalFifoScheduler sched;
  const auto report = net.run(sched, opts);
  ASSERT_TRUE(report.quiescent);
  EXPECT_EQ(trace.sends(), report.sent);
  EXPECT_EQ(trace.deliveries(), report.deliveries);
  EXPECT_EQ(trace.events().size(), report.sent + report.deliveries);
  // Indices are the stream positions.
  for (std::size_t i = 0; i < trace.events().size(); ++i) {
    EXPECT_EQ(trace.events()[i].index, i);
  }
}

TEST(Trace, AuditPassesOnCleanRunsAllSchedulers) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1};
  for (auto& named : standard_schedulers(3)) {
    auto net = PulseNetwork::ring(ids.size());
    for (NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
    }
    TraceRecorder trace;
    RunOptions opts;
    trace.attach(net, opts);
    const auto report = net.run(*named.scheduler, opts);
    ASSERT_TRUE(report.quiescent) << named.name;
    EXPECT_EQ(trace.audit(ring_wiring(ids.size())), "") << named.name;
  }
}

TEST(Trace, AuditPassesOnScrambledRings) {
  const std::vector<std::uint64_t> ids{5, 9, 2, 7};
  const std::vector<bool> flips{true, false, true, true};
  auto net = PulseNetwork::ring(ids.size(), flips);
  for (NodeId v = 0; v < ids.size(); ++v) {
    co::Alg3NonOriented::Options options;
    net.set_automaton(v,
                      std::make_unique<co::Alg3NonOriented>(ids[v], options));
  }
  TraceRecorder trace;
  RunOptions opts;
  trace.attach(net, opts);
  RandomScheduler sched(5);
  const auto report = net.run(sched, opts);
  ASSERT_TRUE(report.quiescent);
  EXPECT_EQ(trace.audit(ring_wiring(ids.size(), flips)), "");
}

TEST(Trace, AuditDetectsInjectedPulse) {
  // An injected pulse was never sent by any node; the conservation audit
  // must flag the channel that over-delivers.
  const std::vector<std::uint64_t> ids{3, 5, 2};
  auto net = PulseNetwork::ring(ids.size());
  for (NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }
  TraceRecorder trace;
  RunOptions opts;
  trace.attach(net, opts);
  opts.max_events = 2000;
  bool injected = false;
  auto previous = opts.on_event;
  opts.on_event = [&](PulseNetwork& n) {
    if (!injected && n.total_sent() >= 3) {
      n.inject_fault(0);
      injected = true;
    }
  };
  GlobalFifoScheduler sched;
  net.run(sched, opts);
  ASSERT_TRUE(injected);
  EXPECT_NE(trace.audit(ring_wiring(ids.size())), "");
}

TEST(Trace, ChainsPreviousDeliverHook) {
  auto net = PulseNetwork::ring(2);
  net.set_automaton(0, std::make_unique<co::Alg2Terminating>(1));
  net.set_automaton(1, std::make_unique<co::Alg2Terminating>(2));
  int external_hook_calls = 0;
  RunOptions opts;
  opts.on_deliver = [&external_hook_calls](NodeId, Port, Direction) {
    ++external_hook_calls;
  };
  TraceRecorder trace;
  trace.attach(net, opts);
  GlobalFifoScheduler sched;
  const auto report = net.run(sched, opts);
  EXPECT_EQ(static_cast<std::uint64_t>(external_hook_calls),
            report.deliveries);
  EXPECT_EQ(trace.deliveries(), report.deliveries);
}

TEST(Trace, EventToString) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::deliver;
  e.node = 3;
  e.port = Port::p1;
  e.dir = Direction::ccw;
  e.index = 17;
  const auto text = to_string(e);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("node=3"), std::string::npos);
  EXPECT_NE(text.find("ccw"), std::string::npos);
  EXPECT_NE(text.find("#17"), std::string::npos);
}

TEST(Trace, RingWiringMapsEndpointsBothWays) {
  // Oriented 3-ring: a delivery at node 1's Port0 came from node 0's Port1.
  const auto wiring = ring_wiring(3);
  EXPECT_EQ(wiring(1, Port::p0), (std::pair<NodeId, Port>{0, Port::p1}));
  EXPECT_EQ(wiring(0, Port::p1), (std::pair<NodeId, Port>{1, Port::p0}));
  // Self-loop: node 0's two ports face each other.
  const auto loop = ring_wiring(1);
  EXPECT_EQ(loop(0, Port::p0), (std::pair<NodeId, Port>{0, Port::p1}));
  EXPECT_EQ(loop(0, Port::p1), (std::pair<NodeId, Port>{0, Port::p0}));
  // Flipped node 1 in a 3-ring: its labels swap.
  const auto scrambled = ring_wiring(3, {false, true, false});
  EXPECT_EQ(scrambled(1, Port::p1), (std::pair<NodeId, Port>{0, Port::p1}));
  EXPECT_EQ(scrambled(1, Port::p0), (std::pair<NodeId, Port>{2, Port::p0}));
}

// --- Causal depth ----------------------------------------------------------

using Alg = test::RingAlg;
using test::make_ring;

struct Depth {
  std::uint64_t depth = 0;
  std::uint64_t sent = 0;
};

Depth measure_depth(PulseNetwork net, Scheduler& s) {
  CausalDepthProbe probe;
  RunOptions opts;
  probe.attach(net, opts);
  const RunReport report = net.run(s, opts);
  EXPECT_TRUE(report.quiescent);
  return {probe.depth(), report.sent};
}

TEST(CausalDepth, OneNodeRingIsFullySequential) {
  // A self-loop has one node, so every pulse follows the one before it.
  for (const std::uint64_t id : {1u, 2u, 7u, 60u}) {
    GlobalFifoScheduler fifo;
    const Depth d = measure_depth(make_ring(Alg::alg2, {id}), fifo);
    EXPECT_EQ(d.sent, 2 * id + 1) << id;
    EXPECT_EQ(d.depth, 2 * id + 1) << id;
  }
}

TEST(CausalDepth, IndexedAndViewPathGiveEqualDepths) {
  for (const Alg alg : {Alg::alg1, Alg::alg2, Alg::alg3}) {
    for (const std::size_t n : {2u, 5u, 16u}) {
      const auto ids = test::shuffled(test::dense_ids(n), n);
      GlobalFifoScheduler indexed, inner;
      test::ViewPathScheduler views(inner);
      const Depth a = measure_depth(make_ring(alg, ids), indexed);
      const Depth b = measure_depth(make_ring(alg, ids), views);
      const std::string label = "alg" + std::to_string(static_cast<int>(alg) + 1) +
                                " n=" + std::to_string(n);
      EXPECT_EQ(a.depth, b.depth) << label;
      EXPECT_EQ(a.sent, b.sent) << label;
      EXPECT_GE(a.depth, 1u) << label;
      EXPECT_LE(a.depth, a.sent) << label;
    }
  }
}

TEST(CausalDepth, SocketRingShapeIsOneChain) {
  // perfbench's socket-ring shape: Alg 2, n = 3, IDmax = 2000, two small
  // IDs. Nearly every pulse waits for the one before it.
  GlobalFifoScheduler fifo;
  const Depth d = measure_depth(make_ring(Alg::alg2, {5, 2000, 2}), fifo);
  EXPECT_EQ(d.sent, 12'003u);
  EXPECT_LE(d.depth, d.sent);
  EXPECT_GE(d.depth * 100, d.sent * 99);
}

TEST(CausalDepth, UnsentDeliveryIsAContractViolation) {
  auto net = make_ring(Alg::alg2, {3, 5, 2});
  CausalDepthProbe probe;
  RunOptions opts;
  probe.attach(net, opts);
  net.inject_fault(0);  // a pulse no node sent
  GlobalFifoScheduler fifo;
  EXPECT_THROW(net.run(fifo, opts), util::ContractViolation);
}

}  // namespace
}  // namespace colex::sim
