#include "net/node.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "util/cpus.hpp"

namespace colex::net {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + ::strerror(errno);
}

/// Pulses batched past this count are flushed eagerly, ahead of the wait()
/// flush — bounds endpoint memory (trivially) and keeps long causal chains
/// (Algorithm 3's probe storms) moving while the sender is still busy.
constexpr std::uint64_t kFlushBatch = 64;

/// How long wait() busy-reads the ring edges before it reports idle and
/// blocks in poll(), when the ring fits the CPUs (spin_fits). It must cover
/// the ring's round trip, two hops at n = 3; DESIGN §11 has the sweep.
constexpr std::chrono::microseconds kSpinBudget{100};

}  // namespace

bool spin_fits(std::size_t ring_size, std::size_t cpus) {
  return ring_size + 1 <= cpus;
}

// --- Handshake -----------------------------------------------------------

bool send_hello(int fd, std::uint32_t sender, std::uint32_t ring_size,
                const Deadline& deadline, std::string* err) {
  const std::vector<unsigned char> frame = encode_hello(sender, ring_size);
  return send_all(fd, frame.data(), frame.size(), deadline, err);
}

bool expect_hello(int fd, std::uint32_t want_sender, std::uint32_t ring_size,
                  const Deadline& deadline, std::string* err) {
  HelloParser parser;
  std::size_t got = 0;
  while (got < kHelloSize) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, deadline.remaining_ms());
    if (rc < 0 && errno != EINTR) {
      if (err != nullptr) *err = errno_string("poll(hello)");
      return false;
    }
    if (rc > 0) {
      // Read only the HELLO's remaining bytes: pulse bytes follow on the
      // same stream and must stay in the kernel buffer for the endpoint.
      unsigned char buf[kHelloSize];
      const ssize_t n = ::read(fd, buf, kHelloSize - got);
      if (n > 0) {
        parser.feed(buf, static_cast<std::size_t>(n));
        got += static_cast<std::size_t>(n);
        if (!parser.error().empty()) {
          if (err != nullptr) *err = parser.error();
          return false;
        }
      } else if (n == 0) {
        if (err != nullptr) {
          *err = "handshake: peer closed before HELLO completed";
        }
        return false;
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        if (err != nullptr) *err = errno_string("read(hello)");
        return false;
      }
    }
    if (got < kHelloSize && deadline.expired()) {
      if (err != nullptr) *err = "handshake: deadline waiting for HELLO";
      return false;
    }
  }
  const Hello h = parser.hello();
  if (h.sender != want_sender) {
    if (err != nullptr) {
      *err = "handshake: expected predecessor index " +
             std::to_string(want_sender) + ", got " + std::to_string(h.sender);
    }
    return false;
  }
  if (h.ring_size != ring_size) {
    if (err != nullptr) {
      *err = "handshake: ring size mismatch (ours " +
             std::to_string(ring_size) + ", peer says " +
             std::to_string(h.ring_size) + ")";
    }
    return false;
  }
  return true;
}

Fd accept_predecessor(int listener, std::uint32_t want_sender,
                      std::uint32_t ring_size, const Deadline& deadline,
                      std::string* err, obs::FlightRing* flight) {
  for (;;) {
    std::string attempt_err;
    Fd pred = accept_one(listener, deadline, &attempt_err);
    if (!pred.valid()) {
      if (err != nullptr) *err = "accept predecessor: " + attempt_err;
      return Fd{};
    }
    set_nodelay(pred.get());
    if (expect_hello(pred.get(), want_sender, ring_size, deadline,
                     &attempt_err)) {
      return pred;
    }
    if (deadline.expired()) {
      if (err != nullptr) *err = attempt_err;
      return Fd{};
    }
    // Stray connection on a recycled ephemeral port: drop it, accept again.
    if (flight != nullptr) flight->record("stray-dropped", want_sender);
  }
}

// --- PulseEndpoint -------------------------------------------------------

PulseEndpoint::PulseEndpoint(Fd succ, Fd pred, Fd ctl, sim::Port succ_port,
                             Deadline deadline, CtlParser parser,
                             std::vector<CtlMsg> pending,
                             obs::FlightRing* flight, bool spin)
    : ctl_(std::move(ctl)),
      deadline_(deadline),
      ctl_parser_(std::move(parser)),
      spin_(spin),
      flight_(flight) {
  links_[sim::index(succ_port)].fd = std::move(succ);
  links_[sim::index(sim::opposite(succ_port))].fd = std::move(pred);
  std::string err;
  for (Link& link : links_) {
    if (link.fd.valid()) {
      if (!set_nonblocking(link.fd.get(), &err)) fail(err);
      set_nodelay(link.fd.get());
    }
  }
  if (ctl_.valid()) {
    if (!set_nonblocking(ctl_.get(), &err)) fail(err);
  }
  // Control frames already decoded during formation (e.g. batched right
  // behind GO) must not be lost.
  for (const CtlMsg& msg : pending) {
    if (!handle_ctl(msg)) break;
  }
}

bool PulseEndpoint::recv(sim::Port p) {
  std::uint64_t& q = queue_[sim::index(p)];
  if (q == 0) return false;
  --q;
  ++counters_.consumed;
  return true;
}

void PulseEndpoint::send(sim::Port p) {
  ++counters_.sent;
  Link& link = links_[sim::index(p)];
  ++link.out_pending;
  if (link.out_pending >= kFlushBatch) flush_link(link);
}

bool PulseEndpoint::flush_link(Link& link) {
  if (link.out_pending == 0) return true;
  unsigned char buf[256];
  std::memset(buf, kPulseByte, sizeof(buf));
  while (link.out_pending > 0) {
    const std::size_t chunk = link.out_pending > sizeof(buf)
                                  ? sizeof(buf)
                                  : static_cast<std::size_t>(link.out_pending);
    std::string err;
    if (!send_all(link.fd.get(), buf, chunk, deadline_, &err)) {
      fail("pulse flush: " + err);
      return false;
    }
    link.out_pending -= chunk;
    counters_.bytes_tx += chunk;
  }
  ++counters_.flushes;
  return true;
}

bool PulseEndpoint::flush() {
  for (Link& link : links_) {
    if (!flush_link(link)) return false;
  }
  return true;
}

bool PulseEndpoint::drain_link(int port_idx, bool swallow) {
  Link& link = links_[port_idx];
  if (link.eof || !link.fd.valid()) return true;
  unsigned char buf[256];
  for (;;) {
    const ssize_t n = ::read(link.fd.get(), buf, sizeof(buf));
    if (n > 0) {
      counters_.bytes_rx += static_cast<std::uint64_t>(n);
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] != kPulseByte) {
          fail("data stream: unexpected byte " +
               std::to_string(static_cast<int>(buf[i])) + " on port " +
               std::to_string(port_idx));
          return false;
        }
      }
      if (swallow) {
        counters_.consumed += static_cast<std::uint64_t>(n);
      } else {
        queue_[port_idx] += static_cast<std::uint64_t>(n);
      }
      continue;
    }
    if (n == 0) {
      // Peer closed. During teardown this races the coordinator's STOP, so
      // it is not an error by itself: remember it, stop polling this edge,
      // and let STOP (or the watchdog) decide how the run ends.
      link.eof = true;
      if (flight_ != nullptr) {
        flight_->record("edge_eof", static_cast<std::uint64_t>(port_idx));
      }
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    fail(errno_string("read(pulse)"));
    return false;
  }
}

bool PulseEndpoint::handle_ctl(const CtlMsg& msg) {
  switch (msg.type) {
    case Ctl::stop:
      stop_ = true;
      if (flight_ != nullptr) flight_->record("stop");
      return true;
    case Ctl::probe:
      have_probe_ = true;
      probe_round_ = msg.words[0];
      return true;
    case Ctl::go:
      return true;  // duplicate GO is harmless
    default:
      fail("control stream: unexpected frame type " +
           std::to_string(static_cast<int>(msg.type)) + " mid-election");
      return false;
  }
}

bool PulseEndpoint::drain_ctl() {
  unsigned char buf[256];
  for (;;) {
    const ssize_t n = ::read(ctl_.get(), buf, sizeof(buf));
    if (n > 0) {
      std::vector<CtlMsg> msgs;
      if (!ctl_parser_.feed(buf, static_cast<std::size_t>(n), msgs)) {
        fail(ctl_parser_.error());
        return false;
      }
      for (const CtlMsg& msg : msgs) {
        if (!handle_ctl(msg)) return false;
      }
      continue;
    }
    if (n == 0) {
      fail("control connection closed by coordinator");
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    fail(errno_string("read(ctl)"));
    return false;
  }
}

bool PulseEndpoint::report() {
  ++counters_.reports;
  const std::vector<unsigned char> frame =
      encode_ctl(Ctl::report, {done_ ? kStateDone : kStateIdle,
                               counters_.sent, counters_.consumed});
  std::string err;
  if (!send_all(ctl_.get(), frame.data(), frame.size(), deadline_, &err)) {
    fail("report: " + err);
    return false;
  }
  if (flight_ != nullptr) {
    flight_->record("report", counters_.sent, counters_.consumed);
  }
  return true;
}

void PulseEndpoint::answer_pending_probe() {
  if (!have_probe_) return;
  // Only a provably idle node may ack: every sent pulse flushed to the
  // kernel, no arrived pulse left unconsumed. Anything else defers the ack
  // until the work drains — that deferral is what lets the coordinator's
  // two-round confirmation rule out in-flight pulses.
  if (queue_[0] + queue_[1] != 0) return;
  if (links_[0].out_pending + links_[1].out_pending != 0) return;
  have_probe_ = false;
  ++counters_.probe_acks;
  const std::vector<unsigned char> frame = encode_ctl(
      Ctl::probe_ack, {probe_round_, done_ ? kStateDone : kStateIdle,
                       counters_.sent, counters_.consumed});
  std::string err;
  if (!send_all(ctl_.get(), frame.data(), frame.size(), deadline_, &err)) {
    fail("probe ack: " + err);
    return;
  }
  if (flight_ != nullptr) {
    flight_->record("probe_ack", probe_round_, counters_.consumed);
  }
}

bool PulseEndpoint::wait() {
  ++counters_.waits;
  if (stop_) return false;
  if (!flush()) return false;
  if (!drain_ctl()) return false;
  if (stop_) return false;
  // Drain the kernel buffers before the pending-pulse check: the immediate
  // return below must still make progress when the algorithm is waiting on
  // one port while unconsumed pulses sit queued on the other.
  for (int i = 0; i < 2; ++i) {
    if (!drain_link(i, false)) return false;
  }
  if (queue_[0] + queue_[1] > 0) return true;  // ThreadRing wait_any contract
  // The REPORT follows the spin: a wait the spin satisfies sends no REPORT
  // and makes no poll().
  if (spin_) {
    busy_read();
    if (stop_) return false;
    if (queue_[0] + queue_[1] > 0) return true;
  }
  if (!report()) return false;
  answer_pending_probe();
  if (stop_) return false;
  for (;;) {
    pollfd pfds[3];
    nfds_t nf = 0;
    for (int i = 0; i < 2; ++i) {
      if (!links_[i].eof && links_[i].fd.valid()) {
        pfds[nf].fd = links_[i].fd.get();
        pfds[nf].events = POLLIN;
        pfds[nf].revents = 0;
        ++nf;
      }
    }
    pfds[nf].fd = ctl_.get();
    pfds[nf].events = POLLIN;
    pfds[nf].revents = 0;
    ++nf;
    ++counters_.polls;
    const int rc = ::poll(pfds, nf, deadline_.remaining_ms());
    if (rc < 0 && errno != EINTR) {
      fail(errno_string("poll(wait)"));
      return false;
    }
    if (!drain_ctl()) return false;
    if (stop_) return false;
    for (int i = 0; i < 2; ++i) {
      if (!drain_link(i, false)) return false;
    }
    if (queue_[0] + queue_[1] > 0) return true;
    answer_pending_probe();
    if (deadline_.expired()) {
      std::string what = "wait(): watchdog deadline expired";
      if (links_[0].eof || links_[1].eof) {
        what += " after a ring edge saw EOF mid-election";
      }
      fail(what);
      return false;
    }
  }
}

void PulseEndpoint::busy_read() {
  const auto until = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    // The budget is checked before the drain, so the last drain happens
    // after it ran out: a spinner preempted past the budget still sees the
    // pulse that arrived meanwhile.
    const bool last = std::chrono::steady_clock::now() >= until;
    for (int i = 0; i < 2; ++i) {
      if (!drain_link(i, false)) return;
    }
    if (queue_[0] + queue_[1] > 0 || last) return;
  }
}

void PulseEndpoint::drain_until_stop() {
  done_ = true;
  if (stop_) return;
  if (!flush()) return;
  // Anything still queued locally after termination is swallowed, exactly
  // as the simulator and the coroutine executor credit deliveries to
  // terminated nodes — conservation (sent == consumed) closes identically
  // on every substrate.
  counters_.consumed += queue_[0] + queue_[1];
  queue_[0] = queue_[1] = 0;
  if (!drain_ctl()) return;
  for (int i = 0; i < 2; ++i) {
    if (!drain_link(i, true)) return;
  }
  if (!report()) return;
  answer_pending_probe();
  while (!stop_) {
    pollfd pfds[3];
    nfds_t nf = 0;
    for (int i = 0; i < 2; ++i) {
      if (!links_[i].eof && links_[i].fd.valid()) {
        pfds[nf].fd = links_[i].fd.get();
        pfds[nf].events = POLLIN;
        pfds[nf].revents = 0;
        ++nf;
      }
    }
    pfds[nf].fd = ctl_.get();
    pfds[nf].events = POLLIN;
    pfds[nf].revents = 0;
    ++nf;
    ++counters_.polls;
    const int rc = ::poll(pfds, nf, deadline_.remaining_ms());
    if (rc < 0 && errno != EINTR) {
      fail(errno_string("poll(drain)"));
      return;
    }
    if (!drain_ctl()) return;
    if (stop_) return;
    const std::uint64_t before = counters_.consumed;
    for (int i = 0; i < 2; ++i) {
      if (!drain_link(i, true)) return;
    }
    if (counters_.consumed != before) {
      if (!report()) return;  // counters moved: refresh the coordinator
    }
    answer_pending_probe();
    if (deadline_.expired()) {
      fail("drain_until_stop(): watchdog deadline expired");
      return;
    }
  }
}

void PulseEndpoint::shutdown() {
  if (shut_) return;
  shut_ = true;
  if (error_.empty()) flush();  // best effort on the happy path
  for (Link& link : links_) link.fd.reset();
  ctl_.reset();
  if (flight_ != nullptr) {
    flight_->record("shutdown", counters_.sent, counters_.consumed);
  }
}

void PulseEndpoint::fail(const std::string& what) {
  if (error_.empty()) error_ = what;  // first failure is the root cause
  stop_ = true;
  if (flight_ != nullptr) flight_->record("error");
}

// --- run_ring_node -------------------------------------------------------

namespace {

/// Reads control frames until one of type `want` arrives; any other frame
/// (or EOF, or the deadline) is a formation failure. Frames decoded beyond
/// `want` stay in `pending` for the endpoint to inherit.
bool await_ctl(int fd, CtlParser& parser, std::vector<CtlMsg>& pending,
               Ctl want, CtlMsg* out, const Deadline& deadline,
               std::string* err) {
  for (;;) {
    if (!pending.empty()) {
      CtlMsg msg = std::move(pending.front());
      pending.erase(pending.begin());
      if (msg.type == want) {
        *out = std::move(msg);
        return true;
      }
      if (msg.type == Ctl::err) {
        *err = "formation: coordinator error: " + msg.text;
      } else {
        *err = "formation: unexpected control frame type " +
               std::to_string(static_cast<int>(msg.type));
      }
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, deadline.remaining_ms());
    if (rc < 0 && errno != EINTR) {
      *err = errno_string("poll(ctl)");
      return false;
    }
    if (rc > 0) {
      unsigned char buf[256];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        if (!parser.feed(buf, static_cast<std::size_t>(n), pending)) {
          *err = parser.error();
          return false;
        }
      } else if (n == 0) {
        *err = "formation: coordinator closed control connection";
        return false;
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        *err = errno_string("read(ctl)");
        return false;
      }
    }
    if (pending.empty() && deadline.expired()) {
      *err = "formation: deadline waiting for control frame";
      return false;
    }
  }
}

}  // namespace

NodeResult run_ring_node(const RingNodeConfig& cfg) {
  NodeResult res;
  const Deadline deadline = Deadline::in_ms(cfg.timeout_ms);
  std::string err;

  // Failures are reported both locally and — when the control connection is
  // up — to the coordinator, so a multi-process run aborts with the cause
  // instead of timing out in silence.
  const auto fail = [&](const std::string& what, int ctl_fd = -1) {
    res.ok = false;
    res.error = "node " + std::to_string(cfg.index) + ": " + what;
    if (ctl_fd >= 0) {
      const std::vector<unsigned char> frame = encode_err(res.error);
      std::string ignored;
      send_all(ctl_fd, frame.data(), frame.size(), deadline, &ignored);
    }
    return res;
  };

  if (cfg.ring_size == 0 || cfg.index >= cfg.ring_size || cfg.id == 0) {
    return fail("invalid config (index/ring_size/id)");
  }
  if (cfg.flight != nullptr) cfg.flight->record("start", cfg.index, cfg.id);

  // Data-plane listener first: the JOIN frame carries its bound port.
  std::uint16_t data_port = 0;
  Fd listener = listen_on(cfg.data_port, &data_port, &err);
  if (!listener.valid()) return fail("listen: " + err);

  Fd ctl = connect_retry(cfg.coordinator_port, deadline, &err);
  if (!ctl.valid()) return fail("connect coordinator: " + err);
  set_nodelay(ctl.get());
  {
    const std::vector<unsigned char> frame =
        encode_ctl(Ctl::join, {cfg.index, data_port});
    if (!send_all(ctl.get(), frame.data(), frame.size(), deadline, &err)) {
      return fail("join: " + err);
    }
  }

  CtlParser parser;
  std::vector<CtlMsg> pending;
  CtlMsg msg;
  if (!await_ctl(ctl.get(), parser, pending, Ctl::peers, &msg, deadline,
                 &err)) {
    return fail(err, ctl.get());
  }
  if (msg.words[0] != cfg.ring_size) {
    return fail("peers: coordinator ring size " +
                    std::to_string(msg.words[0]) + " != configured " +
                    std::to_string(cfg.ring_size),
                ctl.get());
  }
  const std::uint16_t succ_port = static_cast<std::uint16_t>(msg.words[1]);
  if (cfg.flight != nullptr) cfg.flight->record("peers", succ_port);

  // Ring formation: connect out to the successor, accept the predecessor,
  // verify both HELLOs. For n == 1 the connect loops back to our own
  // listener; the formulas below degenerate correctly (predecessor == us).
  Fd succ = connect_retry(succ_port, deadline, &err);
  if (!succ.valid()) return fail("connect successor: " + err, ctl.get());
  set_nodelay(succ.get());
  if (!send_hello(succ.get(), cfg.index, cfg.ring_size, deadline, &err)) {
    return fail("hello to successor: " + err, ctl.get());
  }
  const std::uint32_t want_pred =
      (cfg.index + cfg.ring_size - 1) % cfg.ring_size;
  Fd pred = accept_predecessor(listener.get(), want_pred, cfg.ring_size,
                               deadline, &err, cfg.flight);
  if (!pred.valid()) return fail(err, ctl.get());
  listener.reset();  // the ring is formed; no further connections expected

  {
    const std::vector<unsigned char> frame = encode_ctl(Ctl::ready, {});
    if (!send_all(ctl.get(), frame.data(), frame.size(), deadline, &err)) {
      return fail("ready: " + err);
    }
  }
  if (!await_ctl(ctl.get(), parser, pending, Ctl::go, &msg, deadline, &err)) {
    return fail(err, ctl.get());
  }
  if (cfg.flight != nullptr) cfg.flight->record("go");

  // The successor edge carries the node's Port1 label in the oriented base,
  // Port0 under a flip — identical to sim::wire_ring / coro::wire_ring.
  const sim::Port succ_label = cfg.flip ? sim::Port::p0 : sim::Port::p1;
  PulseEndpoint ep(std::move(succ), std::move(pred), std::move(ctl),
                   succ_label, deadline, std::move(parser),
                   std::move(pending), cfg.flight,
                   spin_fits(cfg.ring_size, util::usable_cpus()));

  rt::BlockingOutcome out;
  try {
    out = rt::drive_blocking(
        rt::spawn_alg(cfg.alg, rt::TransportPort<EndpointIo>(EndpointIo(ep)),
                      cfg.id));
  } catch (const std::exception& e) {
    return fail(std::string("algorithm: ") + e.what(), ep.ctl_fd());
  }
  if (out.terminated) ep.drain_until_stop();

  res.outcome = out;
  res.counters = ep.counters();
  if (!ep.error().empty()) return fail(ep.error(), ep.ctl_fd());

  const std::vector<unsigned char> frame =
      encode_result(out, ep.sent(), ep.consumed());
  if (!send_all(ep.ctl_fd(), frame.data(), frame.size(), deadline, &err)) {
    return fail("result: " + err);
  }
  ep.shutdown();
  res.ok = true;
  return res;
}

}  // namespace colex::net
