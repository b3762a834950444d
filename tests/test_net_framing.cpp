// Wire-level tests for the socket backend: incremental HELLO / control
// parsers under partial and coalesced reads, the pulse endpoint's event
// loop on socketpairs (burst coalescing, EOF mid-election, teardown, the
// busy-read phase), the busy-read CPU rule, and the connect helpers'
// refused-vs-fatal classification. Every wait in here is deadline-based —
// no sleeps, no timing assumptions.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/node.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace colex::net {
namespace {

/// A connected AF_UNIX pair with RAII ends (stream semantics match the TCP
/// loopback paths the backend runs on, minus the handshake latency).
struct Pair {
  Fd a, b;
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Fd(fds[0]);
    b = Fd(fds[1]);
  }
};

/// A loopback port that refuses connections for as long as `guard` lives:
/// bound but never listened on, so the kernel RSTs every SYN while the bind
/// reservation stops concurrent processes from grabbing the port (a
/// bind-then-close probe would race with other test runs on this box).
std::uint16_t refusing_port(Fd& guard) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  guard = Fd{fd};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  return ntohs(addr.sin_port);
}

std::vector<unsigned char> concat(
    std::initializer_list<std::vector<unsigned char>> frames) {
  std::vector<unsigned char> out;
  for (const auto& f : frames) out.insert(out.end(), f.begin(), f.end());
  return out;
}

// --- HelloParser ---------------------------------------------------------

TEST(HelloParser, ByteAtATime) {
  const auto frame = encode_hello(5, 12);
  ASSERT_EQ(frame.size(), kHelloSize);
  HelloParser p;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_FALSE(p.done()) << "done after only " << i << " bytes";
    EXPECT_EQ(p.feed(&frame[i], 1), 1u);
  }
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.hello().sender, 5u);
  EXPECT_EQ(p.hello().ring_size, 12u);
}

TEST(HelloParser, StopsAtFrameBoundary) {
  // HELLO followed by pulse bytes in one read: the parser must take exactly
  // the HELLO and leave the pulses untouched.
  auto bytes = encode_hello(0, 1);
  bytes.push_back(kPulseByte);
  bytes.push_back(kPulseByte);
  HelloParser p;
  EXPECT_EQ(p.feed(bytes.data(), bytes.size()), kHelloSize);
  EXPECT_TRUE(p.done());
}

TEST(HelloParser, BadMagicIsAnError) {
  unsigned char junk[4] = {'C', 'L', 'X', 'X'};
  HelloParser p;
  p.feed(junk, 4);
  EXPECT_FALSE(p.done());
  EXPECT_NE(p.error().find("bad magic"), std::string::npos);
}

// --- CtlParser -----------------------------------------------------------

TEST(CtlParser, CoalescedFramesSplitAtArbitraryBoundaries) {
  const auto bytes =
      concat({encode_ctl(Ctl::join, {3, 40100}),
              encode_ctl(Ctl::report, {kStateIdle, 17, 16}),
              encode_ctl(Ctl::probe_ack, {2, kStateDone, 17, 17}),
              encode_err("node 3: something broke"),
              encode_ctl(Ctl::stop, {})});
  // Re-feed the same stream at every split point: identical decode.
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    CtlParser p;
    std::vector<CtlMsg> msgs;
    ASSERT_TRUE(p.feed(bytes.data(), split, msgs));
    ASSERT_TRUE(p.feed(bytes.data() + split, bytes.size() - split, msgs));
    ASSERT_EQ(msgs.size(), 5u) << "split at " << split;
    EXPECT_EQ(msgs[0].type, Ctl::join);
    EXPECT_EQ(msgs[0].words, (std::vector<std::uint64_t>{3, 40100}));
    EXPECT_EQ(msgs[1].type, Ctl::report);
    EXPECT_EQ(msgs[1].words, (std::vector<std::uint64_t>{kStateIdle, 17, 16}));
    EXPECT_EQ(msgs[2].type, Ctl::probe_ack);
    EXPECT_EQ(msgs[3].type, Ctl::err);
    EXPECT_EQ(msgs[3].text, "node 3: something broke");
    EXPECT_EQ(msgs[4].type, Ctl::stop);
  }
}

TEST(CtlParser, UnknownTypeIsFatal) {
  CtlParser p;
  std::vector<CtlMsg> msgs;
  const unsigned char bad = 0x7f;
  EXPECT_FALSE(p.feed(&bad, 1, msgs));
  EXPECT_NE(p.error().find("unknown frame type"), std::string::npos);
  // A poisoned parser stays poisoned.
  const auto ok = encode_ctl(Ctl::stop, {});
  EXPECT_FALSE(p.feed(ok.data(), ok.size(), msgs));
}

TEST(ResultFrame, RoundTripsOutcomeAndCounters) {
  rt::BlockingOutcome out;
  out.id = 9;
  out.role = co::Role::leader;
  out.counters = {9, 9, 10, 10};
  out.rho_port[0] = 3;
  out.sigma_port[1] = 4;
  out.cw_port = sim::Port::p0;
  out.terminated = true;
  out.phase_sends[2] = 7;
  out.phase_waits[5] = 11;
  const auto frame = encode_result(out, 19, 19);
  CtlParser p;
  std::vector<CtlMsg> msgs;
  ASSERT_TRUE(p.feed(frame.data(), frame.size(), msgs));
  ASSERT_EQ(msgs.size(), 1u);
  ASSERT_EQ(msgs[0].type, Ctl::result);
  const DecodedResult r = decode_result(msgs[0].words);
  EXPECT_EQ(r.outcome.id, 9u);
  EXPECT_EQ(r.outcome.role, co::Role::leader);
  EXPECT_EQ(r.outcome.counters.rho_ccw, 10u);
  EXPECT_EQ(r.outcome.rho_port[0], 3u);
  EXPECT_EQ(r.outcome.sigma_port[1], 4u);
  EXPECT_EQ(r.outcome.cw_port, sim::Port::p0);
  EXPECT_TRUE(r.outcome.terminated);
  EXPECT_FALSE(r.outcome.stopped);
  EXPECT_EQ(r.outcome.phase_sends[2], 7u);
  EXPECT_EQ(r.outcome.phase_waits[5], 11u);
  EXPECT_EQ(r.sent, 19u);
  EXPECT_EQ(r.consumed, 19u);
}

// --- Handshake over a real stream ----------------------------------------

TEST(Handshake, HelloRoundTripAndPulsesSurvive) {
  Pair edge;
  const Deadline deadline = Deadline::in_ms(2000);
  std::string err;
  ASSERT_TRUE(send_hello(edge.a.get(), 4, 9, deadline, &err)) << err;
  // Pulses right behind the HELLO in the same segment.
  const unsigned char pulses[3] = {kPulseByte, kPulseByte, kPulseByte};
  ASSERT_TRUE(send_all(edge.a.get(), pulses, 3, deadline, &err)) << err;
  ASSERT_TRUE(expect_hello(edge.b.get(), 4, 9, deadline, &err)) << err;
  // expect_hello must not have eaten the pulses.
  unsigned char rest[8] = {};
  EXPECT_EQ(::read(edge.b.get(), rest, sizeof(rest)), 3);
  EXPECT_EQ(rest[0], kPulseByte);
}

TEST(Handshake, WrongSenderRejected) {
  Pair edge;
  const Deadline deadline = Deadline::in_ms(2000);
  std::string err;
  ASSERT_TRUE(send_hello(edge.a.get(), 4, 9, deadline, &err)) << err;
  EXPECT_FALSE(expect_hello(edge.b.get(), 5, 9, deadline, &err));
  EXPECT_NE(err.find("expected predecessor index 5"), std::string::npos);
}

TEST(Handshake, PeerEofMidHelloRejected) {
  Pair edge;
  const unsigned char half[6] = {'C', 'L', 'X', 'P', 1, 0};
  std::string err;
  ASSERT_EQ(::write(edge.a.get(), half, sizeof(half)), 6);
  edge.a.reset();  // EOF with the HELLO half-sent
  EXPECT_FALSE(expect_hello(edge.b.get(), 0, 1, Deadline::in_ms(2000), &err));
  EXPECT_NE(err.find("peer closed"), std::string::npos);
}

TEST(Handshake, AcceptPredecessorDropsStrayConnections) {
  // Ephemeral-port recycling can aim an unrelated process's connect at a
  // freshly bound listener. Formation must drop connections that fail the
  // HELLO handshake and keep accepting — the real predecessor's connect
  // waits behind the strays in the listener backlog.
  std::uint16_t port = 0;
  std::string err;
  Fd listener = listen_on(0, &port, &err);
  ASSERT_TRUE(listener.valid()) << err;
  const Deadline deadline = Deadline::in_ms(5000);

  // Stray 1: connects and dies without a word (a run torn down elsewhere).
  Fd stray_eof = connect_retry(port, deadline, &err);
  ASSERT_TRUE(stray_eof.valid()) << err;
  stray_eof.reset();
  // Stray 2: a well-formed HELLO from the wrong ring (node 9 of 12).
  Fd stray_wrong = connect_retry(port, deadline, &err);
  ASSERT_TRUE(stray_wrong.valid()) << err;
  ASSERT_TRUE(send_hello(stray_wrong.get(), 9, 12, deadline, &err)) << err;
  // The real predecessor: node 1 of a 3-ring.
  Fd real = connect_retry(port, deadline, &err);
  ASSERT_TRUE(real.valid()) << err;
  ASSERT_TRUE(send_hello(real.get(), 1, 3, deadline, &err)) << err;

  Fd pred = accept_predecessor(listener.get(), 1, 3, deadline, &err);
  ASSERT_TRUE(pred.valid()) << err;
  // Returned the real predecessor's connection: a pulse sent there lands.
  const unsigned char pulse = kPulseByte;
  ASSERT_TRUE(send_all(real.get(), &pulse, 1, deadline, &err)) << err;
  unsigned char got = 0;
  ASSERT_EQ(::read(pred.get(), &got, 1), 1);
  EXPECT_EQ(got, kPulseByte);
}

TEST(Handshake, AcceptPredecessorGivesUpAtDeadline) {
  std::uint16_t port = 0;
  std::string err;
  Fd listener = listen_on(0, &port, &err);
  ASSERT_TRUE(listener.valid()) << err;
  const Fd pred =
      accept_predecessor(listener.get(), 0, 1, Deadline::in_ms(100), &err);
  EXPECT_FALSE(pred.valid());
  EXPECT_NE(err.find("accept predecessor"), std::string::npos);
}

// --- PulseEndpoint event loop on socketpairs -----------------------------

/// Endpoint wired to two socketpairs (ring edges) plus a control pair.
/// succ/pred/ctl are the REMOTE ends the test scripts.
struct Bench {
  Pair succ_pair, pred_pair, ctl_pair;
  PulseEndpoint ep;
  explicit Bench(std::uint64_t timeout_ms = 2000, bool flip = false,
                 bool spin = false)
      : ep(std::move(succ_pair.a), std::move(pred_pair.a),
           std::move(ctl_pair.a), flip ? sim::Port::p0 : sim::Port::p1,
           Deadline::in_ms(timeout_ms), {}, {}, nullptr, spin) {}
  int succ() const { return succ_pair.b.get(); }
  int pred() const { return pred_pair.b.get(); }
  int ctl() const { return ctl_pair.b.get(); }
};

TEST(PulseEndpoint, CoalescedBurstArrivesAsIndividualPulses) {
  Bench bench;
  // 100 pulses in one write on the successor edge: with the oriented label
  // mapping they surface on local Port1 (the successor-facing label).
  std::vector<unsigned char> burst(100, kPulseByte);
  std::string err;
  ASSERT_TRUE(send_all(bench.succ(), burst.data(), burst.size(),
                       Deadline::in_ms(2000), &err));
  ASSERT_TRUE(bench.ep.wait());
  int got = 0;
  while (bench.ep.recv(sim::Port::p1)) ++got;
  EXPECT_EQ(got, 100);
  EXPECT_FALSE(bench.ep.recv(sim::Port::p0));  // nothing on the other label
  EXPECT_EQ(bench.ep.consumed(), 100u);
  EXPECT_EQ(bench.ep.counters().bytes_rx, 100u);
}

TEST(PulseEndpoint, SendsAreBatchedUntilWaitAndIdleIsReported) {
  Bench bench(250);  // short watchdog: wait() must end on its own
  for (int i = 0; i < 10; ++i) bench.ep.send(sim::Port::p1);
  EXPECT_EQ(bench.ep.counters().bytes_tx, 0u) << "sends must batch";
  // Nothing arrives: wait() flushes, reports idle, blocks, and ends at the
  // deadline (false) — every step deadline-driven, no sleeps.
  EXPECT_FALSE(bench.ep.wait());
  EXPECT_EQ(bench.ep.counters().bytes_tx, 10u);
  unsigned char rx[32] = {};
  EXPECT_EQ(::read(bench.succ(), rx, sizeof(rx)), 10);
  // The idle REPORT went out on the control plane before blocking.
  CtlParser p;
  std::vector<CtlMsg> msgs;
  unsigned char ctl_rx[64] = {};
  const ssize_t n = ::read(bench.ctl(), ctl_rx, sizeof(ctl_rx));
  ASSERT_GT(n, 0);
  ASSERT_TRUE(p.feed(ctl_rx, static_cast<std::size_t>(n), msgs));
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].type, Ctl::report);
  EXPECT_EQ(msgs[0].words[0], kStateIdle);
  EXPECT_EQ(msgs[0].words[1], 10u);  // sent
  EXPECT_EQ(msgs[0].words[2], 0u);   // consumed
}

TEST(PulseEndpoint, FlippedLabelMapsEdgesSymmetrically) {
  Bench bench(2000, /*flip=*/true);
  bench.ep.send(sim::Port::p0);  // successor-facing label under a flip
  ASSERT_TRUE(bench.ep.flush());
  unsigned char rx[4] = {};
  EXPECT_EQ(::read(bench.succ(), rx, sizeof(rx)), 1);
  const unsigned char one = kPulseByte;
  std::string err;
  ASSERT_TRUE(send_all(bench.pred(), &one, 1, Deadline::in_ms(2000), &err));
  ASSERT_TRUE(bench.ep.wait());
  EXPECT_TRUE(bench.ep.recv(sim::Port::p1));  // predecessor = opposite label
}

TEST(PulseEndpoint, StopFrameEndsWaitWithFalse) {
  Bench bench;
  const auto stop = encode_ctl(Ctl::stop, {});
  std::string err;
  ASSERT_TRUE(
      send_all(bench.ctl(), stop.data(), stop.size(), Deadline::in_ms(2000),
               &err));
  EXPECT_FALSE(bench.ep.wait());
  EXPECT_TRUE(bench.ep.stopped());
  EXPECT_TRUE(bench.ep.error().empty()) << bench.ep.error();
}

TEST(PulseEndpoint, EofMidElectionSurfacesViaDeadline) {
  // A ring edge closing mid-election is not instantly fatal (it races STOP
  // at teardown) — but with no STOP arriving, the wait must end at the
  // deadline with the EOF recorded, not hang and not crash.
  Bench bench(250);  // short watchdog: this test drives the expiry path
  bench.succ_pair.b.reset();
  bench.pred_pair.b.reset();
  EXPECT_FALSE(bench.ep.wait());
  EXPECT_TRUE(bench.ep.stopped());
  EXPECT_NE(bench.ep.error().find("EOF"), std::string::npos)
      << bench.ep.error();
}

TEST(PulseEndpoint, CoordinatorEofIsImmediatelyFatal) {
  Bench bench;
  bench.ctl_pair.b.reset();  // coordinator died
  EXPECT_FALSE(bench.ep.wait());
  EXPECT_NE(bench.ep.error().find("control connection closed"),
            std::string::npos);
}

TEST(PulseEndpoint, ProbeAckDeferredUntilQueueDrains) {
  Bench bench(250);  // short watchdog ends the second wait
  // A pulse and a probe arrive together; the endpoint must answer the
  // probe only after the pulse is consumed.
  const unsigned char one = kPulseByte;
  std::string err;
  ASSERT_TRUE(send_all(bench.pred(), &one, 1, Deadline::in_ms(2000), &err));
  const auto probe = encode_ctl(Ctl::probe, {7});
  ASSERT_TRUE(send_all(bench.ctl(), probe.data(), probe.size(),
                       Deadline::in_ms(2000), &err));
  ASSERT_TRUE(bench.ep.wait());  // pulse pending: returns true, no ack yet
  EXPECT_EQ(bench.ep.counters().probe_acks, 0u);
  // The predecessor edge carries the opposite label of the successor edge
  // (p1 here), so the pulse surfaces on local port p0.
  EXPECT_TRUE(bench.ep.recv(sim::Port::p0));
  // Now idle: the next wait answers the deferred probe before blocking
  // (then ends at the deadline — nothing else arrives).
  EXPECT_FALSE(bench.ep.wait());
  EXPECT_EQ(bench.ep.counters().probe_acks, 1u);
  // Control stream seen by the "coordinator": REPORT then PROBE_ACK with
  // round 7 and consumed == 1.
  CtlParser p;
  std::vector<CtlMsg> msgs;
  unsigned char rx[256] = {};
  const ssize_t n = ::read(bench.ctl(), rx, sizeof(rx));
  ASSERT_GT(n, 0);
  ASSERT_TRUE(p.feed(rx, static_cast<std::size_t>(n), msgs));
  ASSERT_FALSE(msgs.empty());
  const CtlMsg& ack = msgs.back();
  ASSERT_EQ(ack.type, Ctl::probe_ack);
  EXPECT_EQ(ack.words[0], 7u);
  EXPECT_EQ(ack.words[1], kStateIdle);
  EXPECT_EQ(ack.words[3], 1u);  // consumed
}

// --- The busy-read phase ---------------------------------------------------

/// Reads control frames from the coordinator's end until `count` arrived.
std::vector<CtlMsg> read_ctl(int fd, std::size_t count) {
  CtlParser parser;
  std::vector<CtlMsg> msgs;
  while (msgs.size() < count) {
    unsigned char rx[256];
    const ssize_t n = ::read(fd, rx, sizeof(rx));
    if (n <= 0) break;
    if (!parser.feed(rx, static_cast<std::size_t>(n), msgs)) break;
  }
  return msgs;
}

TEST(PulseEndpointSpin, IdleWaitStillReportsOnceAcksProbeAndEndsAtDeadline) {
  Bench bench(250, /*flip=*/false, /*spin=*/true);
  const auto probe = encode_ctl(Ctl::probe, {3});
  std::string err;
  ASSERT_TRUE(send_all(bench.ctl(), probe.data(), probe.size(),
                       Deadline::in_ms(2000), &err));
  // Nothing arrives: the spin runs out, then the wait reports idle, acks
  // the probe, blocks in poll() and ends at the watchdog deadline.
  EXPECT_FALSE(bench.ep.wait());
  EXPECT_EQ(bench.ep.counters().reports, 1u);
  EXPECT_EQ(bench.ep.counters().probe_acks, 1u);
  EXPECT_GE(bench.ep.counters().polls, 1u);
  EXPECT_NE(bench.ep.error().find("deadline"), std::string::npos)
      << bench.ep.error();
  const std::vector<CtlMsg> msgs = read_ctl(bench.ctl(), 2);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].type, Ctl::report);
  EXPECT_EQ(msgs[0].words[0], kStateIdle);
  EXPECT_EQ(msgs[1].type, Ctl::probe_ack);
  EXPECT_EQ(msgs[1].words[0], 3u);
}

TEST(PulseEndpointSpin, StopAfterTheIdleReportEndsWaitWithFalse) {
  Bench bench(5000, /*flip=*/false, /*spin=*/true);
  // The coordinator's side: answer the idle REPORT with STOP, as it does
  // once the ring is quiescent.
  std::thread coordinator([&bench] {
    const std::vector<CtlMsg> msgs = read_ctl(bench.ctl(), 1);
    EXPECT_EQ(msgs.size(), 1u);
    const auto stop = encode_ctl(Ctl::stop, {});
    std::string err;
    EXPECT_TRUE(send_all(bench.ctl(), stop.data(), stop.size(),
                         Deadline::in_ms(2000), &err));
  });
  EXPECT_FALSE(bench.ep.wait());
  coordinator.join();
  EXPECT_TRUE(bench.ep.stopped());
  EXPECT_TRUE(bench.ep.error().empty()) << bench.ep.error();
  EXPECT_EQ(bench.ep.counters().reports, 1u);
}

TEST(PulseEndpointSpin, SpinsOnlyWhenEveryThreadHasACpu) {
  // n node threads plus the coordinator.
  EXPECT_TRUE(spin_fits(3, 4));
  EXPECT_FALSE(spin_fits(4, 4));
  EXPECT_FALSE(spin_fits(1, 1));
  EXPECT_TRUE(spin_fits(1, 2));
  EXPECT_FALSE(spin_fits(128, 4));
}

// --- Connect classification ----------------------------------------------

TEST(Connect, RefusedIsClassifiedRetryable) {
  // Connect to a bound-but-not-listening port: must be `refused`, not a
  // generic error.
  Fd guard;
  const std::uint16_t port = refusing_port(guard);
  const ConnectResult r = connect_once(port);
  EXPECT_EQ(r.status, ConnectStatus::refused);
  EXPECT_FALSE(r.fd.valid());
}

TEST(Connect, RetryGivesUpAtDeadlineOnRefusal) {
  Fd guard;
  const std::uint16_t port = refusing_port(guard);
  std::string err;
  Fd fd = connect_retry(port, Deadline::in_ms(150), &err);
  EXPECT_FALSE(fd.valid());
  EXPECT_NE(err.find("refused until deadline"), std::string::npos);
}

TEST(Connect, RetrySucceedsOnceListenerExists) {
  std::uint16_t port = 0;
  std::string err;
  Fd listener = listen_on(0, &port, &err);
  ASSERT_TRUE(listener.valid()) << err;
  Fd fd = connect_retry(port, Deadline::in_ms(2000), &err);
  EXPECT_TRUE(fd.valid()) << err;
}

TEST(Connect, AcceptDeadlineExpires) {
  std::uint16_t port = 0;
  std::string err;
  Fd listener = listen_on(0, &port, &err);
  ASSERT_TRUE(listener.valid()) << err;
  Fd fd = accept_one(listener.get(), Deadline::in_ms(100), &err);
  EXPECT_FALSE(fd.valid());
  EXPECT_NE(err.find("deadline"), std::string::npos);
}

}  // namespace
}  // namespace colex::net
