// Work-stealing coroutine executor for ring elections (the tentpole of
// DESIGN.md "Coroutine runtime").
//
// Shape
// -----
// Every ring node is one lazily-started coroutine (runtime/port.hpp's
// ElectionTask) over a CoroIo port. recv()/send() are plain calls on the
// node table; wait_any() is the only awaitable. W worker threads each own a
// Chase-Lev deque of ready node indices; a worker pops LIFO from its own
// deque, steals FIFO round-robin from the others, and parks on a condition
// variable when the whole system has no ready work.
//
// Wanted ports
// ------------
// recv_pulse() records, in the node's `polled_empty` byte, every port whose
// recv() came back empty since the node last waited. wait_any() takes that
// set as the node's *wanted* ports (both ports if it polled none) and
// clears it. Every transcription waits only after a loop iteration whose
// recv() calls all came back empty; with its counters unchanged, its next
// iteration would make the same calls, so only a pulse on a wanted port can
// change what the node does. A pulse on any other port (Algorithm 2 reads
// CCW only once rho_cw >= ID, and its initiated wait reads CCW only) waits
// in its channel until the node polls that port of its own accord.
//
// Sleep/wake protocol (per node, Dekker-style)
// --------------------------------------------
//   consumer (the node, in await_suspend):   producer (a neighbor's send):
//     state <- PARKED(wanted)     seq_cst      channel[q].produced += 1
//     re-check wanted channels    seq_cst        (plain release store)
//       and stop                               s <- state       (relaxed)
//     if pulse or stop:                        if s is PARKED(w), q in w,
//       if CAS(PARKED(wanted)->RUNNING):         and CAS(s->READY): wake
//         resume inline (return false)         else unsettled[q] += 1
//     stay suspended (return true)
//                                            producer's settle, once per
//                                            resume (k = unsettled[q] > 0):
//                                              channel[q].produced += 0
//                                                (seq_cst RMW)
//                                              s <- state       (seq_cst)
//                                              if s is PARKED(w), q in w,
//                                                and CAS(s->READY): wake
//                                                (1 wakeup, k-1 batched)
//                                              else the k pulses ride an
//                                              existing wakeup (READY or
//                                              RUNNING: batched), wait for a
//                                              later poll (PARKED on other
//                                              ports: deferred) or are
//                                              swallowed (DONE)
//   wake: push the node to the producer's own deque.
//
// Every pulse is visible the moment it is sent: a channel has one
// producer, so the deposit is a plain store, and a send that sees its
// receiver parked on that port wakes it at once. The lost-wakeup check is
// paid once per resume, not once per pulse: before the sending node parks,
// yields or returns (and after each drain resume), settle_sends() makes
// one seq_cst RMW on each channel it sent on and then one seq_cst load of
// that receiver's state. With the consumer's seq_cst PARKED store and
// re-check that is a Dekker pair: either the re-check sees the pulses, or
// the settle sees PARKED(wanted) and claims the wakeup. A stale relaxed
// read at send time therefore only delays a wakeup to the sender's settle,
// and a successful eager CAS is seq_cst, so the woken node sees the store
// before it runs. The CAS claims each wakeup exactly once, so a node is
// never double-resumed; pulses that arrive while the node is already READY
// coalesce into the pending wakeup (batched wakeups — counted, and harmless
// to the fault model because pulses are fungible: consuming k batched
// pulses one recv() at a time is indistinguishable from k separate
// wakeups). Every send is booked exactly once, by the eager CAS or by the
// settle: sent == wakeups + batched + deferred + swallowed.
//
// Yields
// ------
// A node that calls wait_any() while a wanted port already holds a pulse
// does not park — it YIELDS: suspends and requeues itself FIFO on the
// calling worker, so every other ready node gets a turn first. That
// happens when a pulse landed after the node's empty poll, and for a node
// that polled no port at all while pulses are pending (a node that never
// reads, such as the watchdog test's deaf node, would otherwise spin the
// worker inside a single resume forever). Yielded nodes count toward
// ready_count_, so quiescence detection is untouched.
//
// Frame ownership
// ---------------
// Once await_suspend publishes a state (PARKED or READY), another worker
// may resume the frame, or the node may finish there. await_suspend
// therefore marks the running thread's ExecContext before it publishes and
// clears the mark if it reclaims its own wakeup; run_node touches the frame
// (handle.done(), the DONE store) only when the coroutine returned without
// leaving the mark, that is, when it ran to co_return.
//
// Quiescence (counter-based, worker-side)
// ---------------------------------------
// The stabilizing algorithms never terminate on their own; the harness
// stops them when the fabric is provably quiet. The last worker to park
// (idle == W under the park mutex) checks ready_count == 0 and global
// sent == consumed. Per-worker counters are relaxed, but every worker's
// idle transition is a seq_cst RMW on idle_workers_, so the RMW chain
// orders each worker's counter writes before the last parker's check
// (release sequence through the RMWs) — the sums are exact, not racy
// approximations. Natural termination (Algorithm 2) is detected separately
// by done_count == n at the moment the last node returns. A pulse sent to
// an already-terminated node is swallowed but counted consumed (a crashed
// node counts as terminated, coro/faults.hpp), keeping the conservation
// argument sound; the sender books it when it settles, which is before its
// worker can go idle.
//
// The thread that calls run() is the stall watchdog: it waits on a
// completion cv on a fixed sampling cadence, records a ProgressTracker
// history, and on timeout broadcasts stop and snapshots dump(). After the
// workers join, it resumes every unfinished coroutine once (with stop set,
// wait_any can no longer suspend), so all outcomes — stopped flags
// included — are collected the way a blocking transport reports them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coro/deque.hpp"
#include "coro/ring.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "runtime/port.hpp"
#include "runtime/progress.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::coro {

struct ExecutorOptions {
  std::size_t workers = 1;
  std::uint64_t timeout_ms = 30'000;  ///< stall watchdog budget
  /// Optional caller-owned registry: per-worker registries are merged into
  /// it post-join (obs single-writer contract; never written concurrently).
  obs::Registry* metrics = nullptr;
};

/// Aggregated executor telemetry (always on: plain per-worker counters,
/// summed post-run; independent of the obs registry).
struct ExecStats {
  std::uint64_t sent = 0;       ///< pulses deposited on channels
  std::uint64_t consumed = 0;   ///< pulses taken off channels
  std::uint64_t swallowed = 0;  ///< pulses to already-terminated nodes
  std::uint64_t resumes = 0;    ///< coroutine resumptions
  std::uint64_t steals = 0;     ///< successful cross-deque steals
  std::uint64_t parks = 0;      ///< worker condvar parks
  std::uint64_t wakeups = 0;    ///< PARKED->READY transitions claimed
  std::uint64_t batched = 0;    ///< pulses coalesced into a pending wakeup
  std::uint64_t deferred = 0;   ///< pulses to a node parked on other ports
  std::uint64_t yields = 0;     ///< wait_any with wanted pulses pending
  std::size_t workers = 0;
};

class CoroIo;

class Executor {
 public:
  Executor(std::size_t n, const std::vector<bool>& port_flips,
           ExecutorOptions options);

  std::size_t size() const { return nodes_.size(); }
  std::size_t workers() const { return worker_count_; }

  /// Port handle for node `v` (hand to spawn_alg / the template algorithms).
  CoroIo io(std::uint32_t v);

  /// Registers node `v`'s coroutine. All n nodes must be bound before run().
  void bind(std::uint32_t v, std::coroutine_handle<> h) {
    COLEX_EXPECTS(!nodes_[v].handle);
    nodes_[v].handle = h;
  }

  /// Seeds every node ready, drives the run to completion (quiescence,
  /// all-terminated, or watchdog timeout), joins the workers, and finishes
  /// every coroutine. Returns true unless the watchdog fired (then
  /// stall_dump() holds the post-mortem).
  bool run();

  bool timed_out() const { return timed_out_; }
  /// True when the run ended by counter-based quiescence detection (vs
  /// every node terminating on its own).
  bool quiescent() const { return quiescent_.load(); }
  const std::string& stall_dump() const { return stall_dump_; }

  std::uint64_t total_sent() const { return sum(&WorkerStats::sent); }
  std::uint64_t total_consumed() const {
    return sum(&WorkerStats::consumed) + sum(&WorkerStats::swallowed);
  }
  ExecStats stats() const;

  /// Human-readable post-mortem: global counters, scheduler state, any
  /// anomalous nodes (pending pulses / not parked), progress history, and
  /// the metrics snapshot when a registry is attached. Intended post-run
  /// or from the watchdog path.
  std::string dump() const;

  // --- node-side operations (called from coroutine bodies) --------------

  bool recv_pulse(std::uint32_t v, sim::Port p) {
    auto& nd = nodes_[v];
    if (!nd.in[sim::index(p)].try_consume()) {
      nd.polled_empty |= port_bit(sim::index(p));
      return false;
    }
    bump(current_->stats->consumed);
    return true;
  }

  /// Deposits one pulse (a plain store: node `v` is the channel's only
  /// producer). A receiver seen parked on that port is woken at once; any
  /// other pulse stays unsettled until settle_sends() — see the file header.
  void send_pulse(std::uint32_t v, sim::Port p) {
    const int i = sim::index(p);
    const auto& src = nodes_[v];
    auto& dst = nodes_[src.peer[i]];
    const std::uint8_t port = src.peer_port[i];
    dst.in[port].produce();
    ExecContext& ctx = *current_;
    bump(ctx.stats->sent);
    NodeState seen = dst.state.load(std::memory_order_relaxed);
    if ((wanted_ports(seen) & port_bit(port)) == 0 ||
        !claim_wakeup(ctx, src.peer[i], seen)) {
      ++ctx.unsettled[i];
    }
  }

  /// Publishes node `v`'s current algorithm phase: a relaxed store on the
  /// node's own cache line, read by stall dumps and the per-phase node
  /// distribution gauges. Always cheap enough to leave unconditional.
  void set_node_phase(std::uint32_t v, sim::Phase p) {
    nodes_[v].phase.store(static_cast<std::uint8_t>(sim::index(p)),
                          std::memory_order_relaxed);
  }

  /// Pulses waiting on node `v`'s port `p`. Reading an empty port counts as
  /// polling it, so a node that only peeks at a port (an automaton's
  /// queued()) is still woken by the next pulse there.
  std::size_t queued_pulses(std::uint32_t v, sim::Port p) {
    auto& nd = nodes_[v];
    const std::uint64_t k = nd.in[sim::index(p)].pending();
    if (k == 0) nd.polled_empty |= port_bit(sim::index(p));
    return static_cast<std::size_t>(k);
  }

  // --- fault layer (defined in coro/faults.cpp) -------------------------
  // Cold-path operations the election path never calls. One worker only:
  // each runs inside the running node's resume (inject_pulse also before
  // run()), so no other node moves meanwhile.

  /// Books the running node `v`'s unsettled sends now, so a fault sees
  /// every receiver's state as those sends left it.
  void settle_running(std::uint32_t v);
  /// Takes every pulse off node `v`'s channels; returns how many it books
  /// consumed (none for a DONE node: its pulses were booked as swallowed).
  std::uint64_t drop_pending(std::uint32_t v);
  /// Deposits a pulse nobody sent on the channel out of `from`'s port `p`,
  /// booked like a send. The running node's sends must be settled.
  void inject_pulse(std::uint32_t from, sim::Port p);
  /// Binds node `v` to frame `h` and queues it: a DONE node counts as live
  /// again, a parked one is claimed without booking a wakeup, a ready one
  /// runs `h` when popped. The running node may call it from its own
  /// wait_any, which then counts as a suspension.
  void rebind(std::uint32_t v, std::coroutine_handle<> h);

  /// Flight recorder (armed iff a metrics registry is attached; nullptr
  /// otherwise — zero-overhead-when-off). One ring per execution context.
  const obs::FlightRecorder* flight() const { return flight_.get(); }

  bool stopping() const { return stop_.load(std::memory_order_seq_cst); }

  /// The awaitable behind CoroIo::wait_any() — see the protocol in the
  /// file header. await_suspend copies its members to locals before any
  /// state publication: the moment a store lands, another thread may resume
  /// (and even finish) the coroutine, destroying this awaiter with it.
  ///
  /// Two suspension flavors, both over the node's wanted ports:
  ///  * wanted channels empty    -> PARK (Dekker protocol; a producer's
  ///                                pulse on a wanted port resumes us)
  ///  * a wanted pulse pending   -> YIELD (requeue FIFO on the calling
  ///                                worker, behind every other ready node).
  struct WaitAnyAwaiter {
    Executor* ex;
    std::uint32_t v;

    // Stop short-circuits suspension entirely: the post-join drain relies
    // on wait_any never suspending (and returning false) once stop_ is set.
    bool await_ready() const noexcept { return ex->stopping(); }
    bool await_suspend(std::coroutine_handle<>) noexcept {
      Executor* const e = ex;  // frame (and *this) may die after a store
      const std::uint32_t self = v;
      auto& nd = e->nodes_[self];
      ExecContext& ctx = *current_;
      e->settle_sends(ctx, self);
      const PortMask wanted =
          nd.polled_empty != 0 ? nd.polled_empty : kBothPorts;
      nd.polled_empty = 0;
      ctx.suspended = true;  // run_node must not touch the frame any more
      if (nd.has_pending(wanted)) {
        // Cooperative yield. We are the running node on this worker, so the
        // yield queue is ours; producers never touch READY nodes (their CAS
        // is PARKED->READY only), so the frame stays ours until we return.
        bump(ctx.stats->yields);
        nd.state.store(NodeState::ready, std::memory_order_seq_cst);
        e->ready_count_.fetch_add(1, std::memory_order_seq_cst);
        ctx.yields->push(self);
        return true;
      }
      const NodeState parked = parked_on(wanted);
      nd.state.store(parked, std::memory_order_seq_cst);
      if (nd.has_pending(wanted) || e->stopping()) {
        NodeState expected = parked;
        if (nd.state.compare_exchange_strong(expected, NodeState::running,
                                             std::memory_order_seq_cst,
                                             std::memory_order_seq_cst)) {
          ctx.suspended = false;
          return false;  // reclaimed our own wakeup: resume inline
        }
        // A producer won the CAS and pushed us to a deque; resuming inline
        // here would double-resume the frame.
      }
      return true;
    }
    // False only on stop (the Transport wait contract): the algorithms
    // treat false as "stopped, record and co_return", which is exactly how
    // the drain unwinds nodes that still hold unconsumable pulses. True
    // does NOT promise a pulse — wakeups can be spurious: a producer's
    // produce -> CAS window may straddle the consumer's whole
    // reclaim/consume/re-park cycle, landing the CAS on a later park whose
    // channels are already empty. The algorithms re-poll and wait again,
    // exactly as they do after any other spurious wake.
    bool await_resume() const noexcept { return !ex->stopping(); }
  };

 private:
  // Per-execution-context (worker or drain driver) counters: written only
  // by the owning thread (relaxed load+store, never RMW), read by others
  // only behind a happens-before edge (idle RMW chain, join).
  struct alignas(kCacheLine) WorkerStats {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<std::uint64_t> swallowed{0};
    std::atomic<std::uint64_t> resumes{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> batched{0};
    std::atomic<std::uint64_t> deferred{0};
    std::atomic<std::uint64_t> yields{0};
  };

  /// Adds `by` to a counter only the calling thread writes.
  static void bump(std::atomic<std::uint64_t>& counter,
                   std::uint64_t by = 1) {
    counter.store(counter.load(std::memory_order_relaxed) + by,
                  std::memory_order_relaxed);
  }

  /// Thread-local execution context: which deque send_pulse() pushes
  /// wakeups to, which FIFO wait_any yields requeue on, and which stats
  /// slot the thread owns. Workers install one on entry; the driver
  /// installs its own for the post-stop drain. `suspended` is set by
  /// wait_any once the running node may belong to another thread.
  /// `unsettled[p]` counts the running node's sends on its port p that
  /// settle_sends() has not booked yet; it is zero between resumes.
  struct ExecContext {
    WorkerStats* stats;
    WorkDeque* deque;
    YieldQueue* yields;
    std::size_t index;
    bool suspended = false;
    std::uint64_t unsettled[2] = {0, 0};
  };
  static thread_local ExecContext* current_;

  /// CAS(seen -> READY) on node `to`; on success pushes it to the context's
  /// deque, counts the wakeup and rouses an idle worker. On failure `seen`
  /// holds the state the CAS found.
  bool claim_wakeup(ExecContext& ctx, std::uint32_t to, NodeState& seen) {
    if (!nodes_[to].state.compare_exchange_strong(
            seen, NodeState::ready, std::memory_order_seq_cst,
            std::memory_order_seq_cst)) {
      return false;
    }
    // We own the wakeup: exactly one push per PARKED->READY transition.
    ready_count_.fetch_add(1, std::memory_order_seq_cst);
    ctx.deque->push(to);
    bump(ctx.stats->wakeups);
    if (idle_workers_.load(std::memory_order_seq_cst) != 0) {
      wake_one_worker();
    }
    return true;
  }

  /// Books node `v`'s unsettled sends: per port, one seq_cst RMW on the
  /// channel and one seq_cst load of the receiver's state (the producer
  /// half of the Dekker pair in the file header). Runs before the node
  /// parks, yields or returns, so no pulse is left unsettled between
  /// resumes.
  void settle_sends(ExecContext& ctx, std::uint32_t v) {
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t k = ctx.unsettled[i];
      if (k == 0) continue;
      ctx.unsettled[i] = 0;
      const std::uint32_t to = nodes_[v].peer[i];
      const std::uint8_t port = nodes_[v].peer_port[i];
      auto& dst = nodes_[to];
      dst.in[port].settle();
      NodeState seen = dst.state.load(std::memory_order_seq_cst);
      WorkerStats& stats = *ctx.stats;
      if ((wanted_ports(seen) & port_bit(port)) != 0 &&
          claim_wakeup(ctx, to, seen)) {
        bump(stats.batched, k - 1);  // the rest ride the wakeup just made
      } else if (seen == NodeState::done) {
        // Swallowed (receiver terminated): total_consumed() counts these so
        // conservation-based quiescence stays sound — the convention
        // crashed nodes share (coro/faults.hpp).
        bump(stats.swallowed, k);
      } else if (is_parked(seen)) {
        // Parked on the other port only: the pulses wait in their channel
        // until the node polls this port of its own accord.
        bump(stats.deferred, k);
      } else {
        // READY or RUNNING: the pulses ride the receiver's existing wakeup.
        bump(stats.batched, k);
      }
    }
  }

  void worker_main(std::size_t w);
  void run_node(ExecContext& ctx, std::uint32_t v);
  /// Parks the calling worker; the last to park runs quiescence detection.
  void park_worker(ExecContext& ctx);
  void signal_stop();
  void wake_one_worker();
  void drain();
  void record_progress_sample(double elapsed_ms);
  void publish_metrics(const std::vector<obs::Registry>& worker_registries);

  /// Records a cold-path scheduler event on execution context `ctx`'s
  /// flight ring (no-op when the recorder is off). Single-writer per ring:
  /// context i only ever writes flight_rings_[i].
  void flight_record(std::size_t ctx, const char* what, std::uint64_t a = 0,
                     std::uint64_t b = 0) {
    if (flight_ != nullptr) flight_rings_[ctx]->record(what, a, b);
  }

  std::uint64_t sum(std::atomic<std::uint64_t> WorkerStats::*field) const {
    std::uint64_t total = 0;
    for (const auto& s : stats_) {
      total += (s.*field).load(std::memory_order_seq_cst);
    }
    return total;
  }

  std::vector<CoroNode> nodes_;
  ExecutorOptions options_;
  std::size_t worker_count_;
  // One deque per worker plus one for the driver's post-stop drain.
  std::vector<std::unique_ptr<WorkDeque>> deques_;
  // Per-worker cooperative-yield FIFOs (same worker_count_ + 1 layout).
  std::vector<std::unique_ptr<YieldQueue>> yields_;
  std::vector<WorkerStats> stats_;  // worker_count_ + 1 slots
  // Flight recorder: rings "worker.0".."worker.W-1" plus "driver" (watchdog
  // + drain events). Created in the constructor, before any worker spawns.
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::vector<obs::FlightRing*> flight_rings_;  // worker_count_ + 1 slots

  std::atomic<std::uint64_t> ready_count_{0};
  std::atomic<std::size_t> idle_workers_{0};
  std::atomic<std::size_t> done_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> quiescent_{false};
  bool timed_out_ = false;  // driver-owned
  std::string stall_dump_;  // driver-owned

  std::mutex park_mutex_;
  std::condition_variable park_cv_;  // workers wait for ready work
  std::condition_variable done_cv_;  // driver waits for completion
  static constexpr std::size_t kProgressSamples = 16;
  rt::ProgressTracker progress_{kProgressSamples};
};

/// The coroutine runtime's PulsePort: a 12-byte handle into the executor's
/// node table. recv/send never block; wait_any parks the node coroutine.
class CoroIo {
 public:
  CoroIo(Executor& ex, std::uint32_t v) : ex_(&ex), v_(v) {}

  bool recv(sim::Port p) { return ex_->recv_pulse(v_, p); }
  void send(sim::Port p) { ex_->send_pulse(v_, p); }
  /// Phase-publication extension (detected by the transcriptions via
  /// `requires { io.set_phase(p); }`).
  void set_phase(sim::Phase p) { ex_->set_node_phase(v_, p); }
  Executor::WaitAnyAwaiter wait_any() {
    return Executor::WaitAnyAwaiter{ex_, v_};
  }

 private:
  Executor* ex_;
  std::uint32_t v_;
};

static_assert(rt::PulsePort<CoroIo>);

inline CoroIo Executor::io(std::uint32_t v) { return CoroIo(*this, v); }

}  // namespace colex::coro
