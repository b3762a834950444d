// Cross-substrate conformance suite for the transport seam
// (runtime/transport.hpp): the same blocking transcriptions must produce
// IDENTICAL election results and IDENTICAL exact pulse counts on every
// substrate — the discrete simulator (the oracle), ThreadRing, the
// coroutine executor, and the real-socket backend — for every algorithm and
// ring size in the battery. Plus direct contract checks of the PulsePort
// surface TransportPort exposes: spurious-wakeup tolerance,
// quiescence-after-done, and shutdown idempotence.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include <sys/socket.h>

#include "co/election.hpp"
#include "co/oriented.hpp"
#include "coro/run.hpp"
#include "net/node.hpp"
#include "net/run.hpp"
#include "qa/generators.hpp"
#include "qa/properties.hpp"
#include "runtime/blocking_algs.hpp"
#include "runtime/transport.hpp"
#include "util/cpus.hpp"

namespace colex {
namespace {

struct BatteryCase {
  qa::Algorithm alg;
  std::size_t n;
};

std::string case_name(const BatteryCase& c) {
  std::string name(qa::to_string(c.alg));
  for (char& ch : name) {
    if (ch == '-') ch = '_';  // gtest names must be identifiers
  }
  return name + "_n" + std::to_string(c.n);
}

/// The battery ring: a 7-step permutation of 1..n (unique for every n in
/// the battery since gcd(7, n) == 1), flips on every third node for the
/// non-oriented algorithms.
qa::FuzzCase battery_case(const BatteryCase& bc) {
  qa::FuzzCase c;
  c.alg = bc.alg;
  for (std::size_t v = 0; v < bc.n; ++v) {
    c.ids.push_back((v * 7) % bc.n + 1);
  }
  const bool oriented =
      bc.alg == qa::Algorithm::alg1 || bc.alg == qa::Algorithm::alg2;
  if (!oriented) {
    for (std::size_t v = 0; v < bc.n; ++v) c.port_flips.push_back(v % 3 == 1);
  }
  EXPECT_TRUE(c.clean());
  return c;
}

rt::ThreadAlg thread_alg(qa::Algorithm a) {
  switch (a) {
    case qa::Algorithm::alg1: return rt::ThreadAlg::alg1;
    case qa::Algorithm::alg2: return rt::ThreadAlg::alg2;
    case qa::Algorithm::alg3_doubled: return rt::ThreadAlg::alg3_doubled;
    default: return rt::ThreadAlg::alg3_improved;
  }
}

/// Asserts one transcription backend agrees with the simulator's run of
/// the same case: completion, leader set, per-node roles, and the exact
/// paper-predicted pulse count.
void expect_matches_sim(const std::string& what, const qa::FuzzCase& c,
                        const qa::RunOutcome& oracle,
                        const rt::TransportRunResult& run) {
  ASSERT_TRUE(run.completed) << what << ": " << run.stall_dump;
  EXPECT_EQ(run.leader_count, oracle.leader_count) << what;
  EXPECT_EQ(run.leader, oracle.leader) << what;
  EXPECT_EQ(run.pulses, qa::exact_pulses(c)) << what;
  ASSERT_EQ(run.outcomes.size(), oracle.roles.size()) << what;
  for (std::size_t v = 0; v < oracle.roles.size(); ++v) {
    EXPECT_EQ(run.outcomes[v].role, oracle.roles[v])
        << what << ": node " << v;
  }
}

class TransportConformance : public ::testing::TestWithParam<BatteryCase> {};

TEST_P(TransportConformance, AllSubstratesMatchSimulatorExactly) {
  const qa::FuzzCase c = battery_case(GetParam());
  const qa::RunOutcome oracle = qa::execute_case(c);
  ASSERT_TRUE(oracle.report.quiescent);
  ASSERT_EQ(oracle.counters.sent, qa::exact_pulses(c))
      << "simulator itself missed the paper's exact count";
  const rt::ThreadAlg alg = thread_alg(c.alg);

  expect_matches_sim("threads", c, oracle,
                     rt::run_on_threads(c.ids, c.port_flips, alg));
  expect_matches_sim("coro", c, oracle,
                     coro::run_on_coro(c.ids, c.port_flips, alg, {2}));

  const net::SocketRunResult sockets =
      net::run_on_sockets(c.ids, c.port_flips, alg);
  expect_matches_sim("sockets", c, oracle, sockets);
  // The socket fabric proves quiescence with real counters: every pulse
  // sent over TCP was consumed, and the wire moved exactly one byte per
  // pulse in each direction.
  EXPECT_EQ(sockets.consumed, sockets.pulses);
  EXPECT_EQ(sockets.wire.bytes_tx, sockets.pulses);
  EXPECT_EQ(sockets.wire.bytes_rx, sockets.pulses);
  EXPECT_GE(sockets.probe_rounds, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Battery, TransportConformance,
    ::testing::Values(BatteryCase{qa::Algorithm::alg1, 1},
                      BatteryCase{qa::Algorithm::alg1, 2},
                      BatteryCase{qa::Algorithm::alg1, 3},
                      BatteryCase{qa::Algorithm::alg1, 8},
                      BatteryCase{qa::Algorithm::alg1, 32},
                      BatteryCase{qa::Algorithm::alg2, 1},
                      BatteryCase{qa::Algorithm::alg2, 2},
                      BatteryCase{qa::Algorithm::alg2, 3},
                      BatteryCase{qa::Algorithm::alg2, 8},
                      BatteryCase{qa::Algorithm::alg2, 32},
                      BatteryCase{qa::Algorithm::alg3_improved, 1},
                      BatteryCase{qa::Algorithm::alg3_improved, 2},
                      BatteryCase{qa::Algorithm::alg3_improved, 3},
                      BatteryCase{qa::Algorithm::alg3_improved, 8},
                      BatteryCase{qa::Algorithm::alg3_improved, 32},
                      BatteryCase{qa::Algorithm::alg3_doubled, 1},
                      BatteryCase{qa::Algorithm::alg3_doubled, 2},
                      BatteryCase{qa::Algorithm::alg3_doubled, 3},
                      BatteryCase{qa::Algorithm::alg3_doubled, 8},
                      BatteryCase{qa::Algorithm::alg3_doubled, 32}),
    [](const ::testing::TestParamInfo<BatteryCase>& param_info) {
      return case_name(param_info.param);
    });

// --- The socket endpoint's busy-read phase ---------------------------------

// A ring that fits the CPUs busy-reads before it sleeps, so most hops find
// their receiver awake: no idle REPORT, no poll(). Without the spin about
// 0.83 REPORTs and 0.83 polls go with every pulse, in every run. The spin
// engages only while the ring's threads really have their CPUs, so ctest
// runs this binary alone (RUN_SERIAL in tests/CMakeLists.txt), and one of
// a few elections must show it: a burst of load from outside the process
// can still put one election to sleep.
TEST(SocketSpin, RingThatFitsTheCpusReportsAndPollsFarLessThanItPulses) {
  if (util::usable_cpus() < 4) {
    GTEST_SKIP() << "needs 4 usable CPUs: 3 node threads + the coordinator";
  }
  const std::vector<std::uint64_t> ids{7, 300, 2};
  ASSERT_TRUE(net::spin_fits(ids.size(), util::usable_cpus()));
  std::string seen;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const net::SocketRunResult r =
        net::run_on_sockets(ids, {}, rt::ThreadAlg::alg2);
    ASSERT_TRUE(r.completed) << r.stall_dump;
    ASSERT_EQ(r.pulses, co::theorem1_pulses(3, 300));
    ASSERT_EQ(r.leader_count, 1u);
    if (r.wire.reports * 4 < r.pulses && r.wire.polls * 4 < r.pulses) return;
    seen += " (" + std::to_string(r.wire.reports) + " reports, " +
            std::to_string(r.wire.polls) + " polls)";
  }
  ADD_FAILURE() << "every election slept through its hops:" << seen
                << " for " << co::theorem1_pulses(3, 300) << " pulses each";
}

// --- PulsePort contract checks (scripted mock transport) -----------------

/// Scripted Transport: arrivals are handed out per recv port, wait()
/// returns a scripted sequence of values (true entries may deliver nothing
/// — the legal spurious wakeup), and the script running dry means "harness
/// stop". MockIo is the copyable handle TransportPort holds by value.
struct MockState {
  std::deque<sim::Port> arrivals;           ///< consumable pulses, in order
  std::deque<std::deque<sim::Port>> waits;  ///< per-wait deliveries
  std::uint64_t wait_calls = 0;
  std::uint64_t sends = 0;
  std::uint64_t shutdowns = 0;
  bool stop = false;
};

struct MockIo {
  MockState* s;
  bool recv(sim::Port p) {
    if (s->arrivals.empty() || s->arrivals.front() != p) return false;
    s->arrivals.pop_front();
    return true;
  }
  void send(sim::Port) { ++s->sends; }
  bool wait() {
    ++s->wait_calls;
    if (s->stop) return false;
    if (s->waits.empty()) {
      s->stop = true;  // script exhausted: quiescence stop
      return false;
    }
    for (const sim::Port p : s->waits.front()) s->arrivals.push_back(p);
    s->waits.pop_front();
    return true;
  }
  bool stopped() const { return s->stop; }
  void shutdown() { ++s->shutdowns; }
};

static_assert(rt::Transport<MockIo>);
static_assert(rt::PulsePort<rt::TransportPort<MockIo>>);

TEST(TransportPortContract, SpuriousWakeupsAreTolerated) {
  // Algorithm 1, id 2: needs two CW arrivals (port p0). The script yields
  // three empty wakeups before each delivery — the transcription must
  // re-poll and re-wait without miscounting.
  MockState s;
  for (int arrival = 0; arrival < 2; ++arrival) {
    for (int spurious = 0; spurious < 3; ++spurious) s.waits.push_back({});
    s.waits.push_back({co::kCcwPort});
  }
  const rt::BlockingOutcome out = rt::drive_blocking(
      rt::spawn_alg(rt::ThreadAlg::alg1, rt::TransportPort<MockIo>(MockIo{&s}),
                    2));
  EXPECT_EQ(out.role, co::Role::leader);
  EXPECT_EQ(out.counters.rho_cw, 2u);
  EXPECT_TRUE(out.stopped);       // script ran dry after the election
  EXPECT_FALSE(out.terminated);   // Algorithm 1 never terminates on its own
  EXPECT_GE(s.wait_calls, 8u);    // all scripted wakeups were consumed
  EXPECT_TRUE(s.arrivals.empty());
}

TEST(TransportPortContract, WaitFalseMeansQuiescenceStop) {
  // A wait() that immediately reports stop must surface as a stopped (not
  // terminated) outcome, with the node's sends still accounted.
  MockState s;  // empty script: first wait returns false
  const rt::BlockingOutcome out = rt::drive_blocking(
      rt::spawn_alg(rt::ThreadAlg::alg1, rt::TransportPort<MockIo>(MockIo{&s}),
                    7));
  EXPECT_TRUE(out.stopped);
  EXPECT_EQ(out.counters.sigma_cw, 1u);  // the line-1 send happened
  EXPECT_EQ(s.sends, 1u);
  EXPECT_TRUE(s.stop);
}

TEST(TransportPortContract, WaitAnyAwaiterNeverSuspends) {
  MockState s;
  s.waits.push_back({co::kCcwPort});
  rt::TransportPort<MockIo> port(MockIo{&s});
  auto awaiter = port.wait_any();
  // Blocking-flavor contract: the wait happens inside await_ready, which
  // always reports ready — the coroutine machinery never parks.
  EXPECT_TRUE(awaiter.await_ready());
  EXPECT_TRUE(awaiter.await_resume());
  EXPECT_TRUE(port.recv(co::kCcwPort));
  auto stopping = port.wait_any();
  EXPECT_TRUE(stopping.await_ready());
  EXPECT_FALSE(stopping.await_resume());  // script dry: stop
  EXPECT_TRUE(port.transport().stopped());
}

TEST(TransportPortContract, ShutdownIsIdempotent) {
  MockState s;
  rt::TransportPort<MockIo> port(MockIo{&s});
  port.transport().shutdown();
  port.transport().shutdown();
  EXPECT_EQ(s.shutdowns, 2u);  // the mock counts; real transports no-op

  // The real socket endpoint: double shutdown must not double-close
  // descriptors (the second call is a no-op by contract).
  int ring[2];
  int ctl[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ring), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl), 0);
  net::PulseEndpoint ep(net::Fd{ring[0]}, net::Fd{ring[1]}, net::Fd{ctl[0]},
                        sim::Port::p1, net::Deadline::in_ms(1000));
  net::EndpointIo io(ep);
  io.shutdown();
  io.shutdown();
  EXPECT_FALSE(ep.stopped() && !ep.error().empty());
  ::close(ctl[1]);  // the peer halves are ours to close exactly once
}

TEST(TransportPortContract, ThreadRingNodeIoModelsTransport) {
  // The seam's origin story: NodeIo satisfies Transport directly, and its
  // shutdown is an idempotent no-op (the fabric owns teardown).
  rt::ThreadRing fabric(2);
  auto io = fabric.io(0);
  io.shutdown();
  io.shutdown();
  io.send(sim::Port::p1);
  EXPECT_TRUE(fabric.io(1).recv(sim::Port::p0));
  EXPECT_FALSE(io.stopped());
  fabric.crash(0);  // the io handle's incarnation dies with the node
  EXPECT_TRUE(io.stopped());
}

}  // namespace
}  // namespace colex
