// One ring node over real TCP sockets: ring-formation handshake, the
// poll-based pulse event loop, and the rt::Transport endpoint the blocking
// algorithm transcriptions (runtime/blocking_algs.hpp) run on — unmodified.
//
// Topology
// --------
// Each ring edge is one full-duplex TCP connection between neighbors: a
// node CONNECTS to its successor's data listener and ACCEPTS its
// predecessor. n=1 degenerates to a self-loop (the node connects to its own
// listener and accepts its own connection — two descriptors, one edge);
// n=2 yields two parallel connections to the same peer, exactly the
// multigraph the simulator's two-edge ring models. Each connection opens
// with a HELLO (wire.hpp) so both ends verify index and ring size.
//
// Port labels
// -----------
// Wiring matches sim::Network / ThreadRing / coro::wire_ring exactly: in
// the oriented base, node i's Port1 attaches to node i+1's Port0. A node's
// local label for the successor edge is therefore Port1, or Port0 when its
// labels are flipped (non-oriented rings) — and, because a link delivers to
// the port it is mounted on, the SAME label indexes both directions of that
// connection: bytes written to the successor connection leave the local
// successor port, bytes read from it arrive on that port.
//
// Event loop
// ----------
// recv()/send() never block: recv pops from the per-port arrival queues,
// send batches a pulse byte on the connection's output tally (flushed at
// wait() and whenever a batch fills). wait() flushes, drains the control
// stream and both ring edges, and returns immediately if arrivals are
// queued (ThreadRing's wait_any contract). Otherwise, when the endpoint
// spins, it busy-reads both ring edges for up to a fixed budget (100 µs)
// and returns as soon as a pulse lands. Only then does it report idle to
// the coordinator and block in poll() over {successor, predecessor,
// control} until pulses arrive, the coordinator broadcasts STOP (wait
// returns false), or the watchdog deadline expires.
//
// The spin exists because an election is one causal chain: socket-ring's
// shape (Alg 2, n=3) is ~12,000 hops deep for 12,003 pulses, so wall time
// is hops × per-hop latency, and a blocking hop pays a sleep/wake. The
// REPORT follows the spin, so a wait the spin satisfies sends no REPORT
// and makes no poll(); quiescence detection only learns of an idle node up
// to one budget later. run_ring_node turns the spin on only when every
// thread of the ring can have its own CPU (spin_fits: n node threads plus
// the coordinator within the affinity mask): spinners on a shared CPU take
// it from the node that holds the chain, which made E18's n=128 Alg 2 row
// 3.4x slower with the spin forced on. While a spinning ring elects, the
// nodes off the chain keep their CPUs busy; DESIGN §11 gives the cost.
//
// Quiescence probes are answered only from a provably idle, fully flushed
// state; the coordinator's two-round confirmation (coordinator.hpp) does
// the rest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/flight.hpp"
#include "runtime/blocking_algs.hpp"
#include "runtime/transport.hpp"
#include "sim/types.hpp"

namespace colex::net {

/// Always-on event-loop telemetry (plain counters; the harness folds them
/// into an obs registry post-run when one is attached).
struct EndpointCounters {
  std::uint64_t sent = 0;        ///< pulses sent by the algorithm
  std::uint64_t consumed = 0;    ///< pulses consumed (incl. swallowed)
  std::uint64_t waits = 0;       ///< wait() calls
  std::uint64_t polls = 0;       ///< poll() syscalls in the event loop
  std::uint64_t flushes = 0;     ///< batched-write flushes
  std::uint64_t bytes_rx = 0;    ///< data-plane bytes read
  std::uint64_t bytes_tx = 0;    ///< data-plane bytes written
  std::uint64_t reports = 0;     ///< idle/done reports sent
  std::uint64_t probe_acks = 0;  ///< quiescence probes answered

  EndpointCounters& operator+=(const EndpointCounters& o) {
    sent += o.sent;
    consumed += o.consumed;
    waits += o.waits;
    polls += o.polls;
    flushes += o.flushes;
    bytes_rx += o.bytes_rx;
    bytes_tx += o.bytes_tx;
    reports += o.reports;
    probe_acks += o.probe_acks;
    return *this;
  }
};

/// The busy-read rule: a ring of `ring_size` node threads plus its
/// coordinator spins only when each thread can have one of `cpus` CPUs.
bool spin_fits(std::size_t ring_size, std::size_t cpus);

// --- Handshake (exposed for the framing tests) ---------------------------

/// Writes the HELLO frame on a freshly connected edge.
bool send_hello(int fd, std::uint32_t sender, std::uint32_t ring_size,
                const Deadline& deadline, std::string* err);

/// Reads exactly one HELLO from `fd` (incremental, deadline-bound) and
/// validates sender/ring size. Never over-reads: pulse bytes follow the
/// HELLO on the same stream.
bool expect_hello(int fd, std::uint32_t want_sender, std::uint32_t ring_size,
                  const Deadline& deadline, std::string* err);

/// Accepts on `listener` until a connection completes the predecessor
/// handshake, and returns it. Ephemeral ports are recycled, so on a busy
/// host a stray connect from an unrelated (possibly dying) process can
/// reach a freshly bound listener first; such a connection fails the HELLO
/// check (EOF, bad magic, wrong sender or ring size) and is dropped — the
/// real predecessor's connect waits behind it in the listener backlog.
/// Only accept failure or deadline expiry is fatal (invalid Fd, `err` set).
Fd accept_predecessor(int listener, std::uint32_t want_sender,
                      std::uint32_t ring_size, const Deadline& deadline,
                      std::string* err, obs::FlightRing* flight = nullptr);

/// The per-node rt::Transport over two ring-edge connections plus the
/// coordinator control connection. Constructed with already-connected,
/// handshaken descriptors (run_ring_node forms them; the framing tests use
/// socketpairs). All descriptors are made non-blocking on construction.
class PulseEndpoint {
 public:
  /// `succ_port` is the LOCAL port label of the successor edge (Port1, or
  /// Port0 under a flip); the predecessor edge gets the opposite label.
  /// `ctl` carries the coordinator protocol; `parser`/`pending` carry over
  /// control bytes already read during formation. `spin` turns on wait()'s
  /// busy-read phase (see "Event loop" above).
  PulseEndpoint(Fd succ, Fd pred, Fd ctl, sim::Port succ_port,
                Deadline deadline, CtlParser parser = {},
                std::vector<CtlMsg> pending = {},
                obs::FlightRing* flight = nullptr, bool spin = false);

  PulseEndpoint(const PulseEndpoint&) = delete;
  PulseEndpoint& operator=(const PulseEndpoint&) = delete;

  // --- rt::Transport surface -------------------------------------------
  bool recv(sim::Port p);
  void send(sim::Port p);
  bool wait();
  bool stopped() const { return stop_; }
  /// Idempotent: closes all descriptors (flushing first on the happy
  /// path); later calls are no-ops.
  void shutdown();

  // --- harness-side ----------------------------------------------------
  /// Post-termination service loop (Algorithm 2): keep draining the ring
  /// edges — swallowing arrivals as consumed, re-reporting `done` counters,
  /// answering probes — until the coordinator broadcasts STOP or the
  /// deadline expires. Mirrors the swallow convention of ThreadRing's
  /// crashed nodes and the executor's terminated nodes, so conservation
  /// (sent == consumed at quiescence) holds on this substrate too.
  void drain_until_stop();

  /// Sends a REPORT with the current state and counters (also invoked
  /// internally at every idle entry).
  bool report();

  /// Flushes every batched pulse byte to the kernel.
  bool flush();

  std::uint64_t sent() const { return counters_.sent; }
  std::uint64_t consumed() const { return counters_.consumed; }
  const EndpointCounters& counters() const { return counters_; }
  /// Non-empty once the endpoint failed (peer EOF mid-election, protocol
  /// violation, watchdog expiry); stop() is implied.
  const std::string& error() const { return error_; }
  int ctl_fd() const { return ctl_.get(); }

 private:
  struct Link {
    Fd fd;
    std::uint64_t out_pending = 0;  ///< batched, unflushed pulse bytes
    bool eof = false;
  };

  bool flush_link(Link& link);
  /// Drains one readable link non-blockingly into the arrival queue (or
  /// `swallow`ing straight into consumed_). False on protocol error.
  bool drain_link(int port_idx, bool swallow);
  /// Drains control bytes; handles STOP/PROBE/unexpected frames.
  bool drain_ctl();
  bool handle_ctl(const CtlMsg& msg);
  /// Drains both ring edges without blocking until a pulse is queued, the
  /// spin budget runs out, or a read fails.
  void busy_read();
  void answer_pending_probe();
  void fail(const std::string& what);

  Link links_[2];  ///< indexed by the LOCAL port label they carry
  Fd ctl_;
  Deadline deadline_;
  CtlParser ctl_parser_;
  std::uint64_t queue_[2] = {0, 0};  ///< arrived, unconsumed pulses
  EndpointCounters counters_;
  bool stop_ = false;
  bool done_ = false;  ///< algorithm terminated naturally
  bool have_probe_ = false;
  std::uint64_t probe_round_ = 0;
  bool spin_ = false;
  bool shut_ = false;
  std::string error_;
  obs::FlightRing* flight_ = nullptr;
};

/// Small copyable Transport handle over a PulseEndpoint — what plugs into
/// rt::TransportPort (which holds its transport by value), mirroring how
/// NodeIo and CoroIo are views into fabric-owned state.
class EndpointIo {
 public:
  explicit EndpointIo(PulseEndpoint& e) : e_(&e) {}
  bool recv(sim::Port p) { return e_->recv(p); }
  void send(sim::Port p) { e_->send(p); }
  bool wait() { return e_->wait(); }
  bool stopped() const { return e_->stopped(); }
  void shutdown() { e_->shutdown(); }

 private:
  PulseEndpoint* e_;
};

static_assert(rt::Transport<EndpointIo>);
static_assert(rt::PulsePort<rt::TransportPort<EndpointIo>>);

/// Everything one node needs to join a ring: identity, algorithm, and
/// where the coordinator listens (always on 127.0.0.1).
struct RingNodeConfig {
  std::uint32_t index = 0;
  std::uint32_t ring_size = 0;
  std::uint64_t id = 0;
  bool flip = false;  ///< port labels mounted against the orientation
  rt::ThreadAlg alg = rt::ThreadAlg::alg2;
  std::uint16_t coordinator_port = 0;
  /// Data-plane listen port. 0 = kernel-assigned ephemeral (the JOIN frame
  /// tells the coordinator); non-zero = deterministic assignment (the
  /// colex-ring CLI uses base_port + index).
  std::uint16_t data_port = 0;
  std::uint64_t timeout_ms = 30'000;
  obs::FlightRing* flight = nullptr;  ///< optional (in-process runs)
};

/// One node's completed run.
struct NodeResult {
  bool ok = false;
  std::string error;
  rt::BlockingOutcome outcome;
  EndpointCounters counters;
};

/// Joins the ring, runs the election, reports the RESULT to the
/// coordinator, and tears down gracefully. Synchronous — call it on a
/// dedicated thread (run_on_sockets) or as a whole process (colex-ring).
NodeResult run_ring_node(const RingNodeConfig& config);

}  // namespace colex::net
