// The transport seam between the algorithm transcriptions and the pulse
// plumbing under them (the coroutine executor's channels, real sockets in
// src/net), so a substrate can host the very same transcriptions without
// touching them.
//
// Two layers:
//
//  * `Transport` — what a substrate must provide per node: non-blocking
//    recv/send on the node's two ports, a *blocking* wait() for the next
//    pulse (false means the harness stopped the run: global quiescence was
//    detected, the watchdog fired, or the endpoint failed), a stopped()
//    probe, and an idempotent shutdown() hook for teardown. src/net's
//    socket endpoint models it by pumping its file descriptors inside
//    wait().
//
//  * `PulsePort` — what an algorithm transcription compiles against
//    (runtime/blocking_algs.hpp): recv/send plus an *awaitable* wait_any().
//    TransportPort<T> turns any Transport into a PulsePort by performing
//    the blocking wait inside await_ready() and never suspending — the
//    coroutine runs to completion in one resume on whatever thread drives
//    it, byte-for-byte the plain blocking behavior. The coroutine executor's
//    CoroIo is the other PulsePort flavor: its wait_any() genuinely
//    suspends, which is what lets a million nodes share a few workers.
//
// wait()/wait_any() share one contract: a false result means "stopped —
// record your outcome and return"; true does NOT promise a pulse (wakeups
// may be spurious: a stale producer CAS on the executor, a control-plane
// message on sockets), so transcriptions
// re-poll recv() and wait again.
#pragma once

#include <concepts>
#include <coroutine>
#include <utility>

#include "sim/types.hpp"

namespace colex::rt {

/// Per-node endpoint contract of an execution substrate. recv/send never
/// block; wait() blocks until a pulse may be available or the harness
/// stopped the run (false). shutdown() releases the endpoint's resources
/// and must be idempotent — harness teardown paths may race a node's own
/// exit, so calling it twice (or after a failed formation) is legal.
template <class T>
concept Transport = requires(T t, sim::Port p) {
  { t.recv(p) } -> std::convertible_to<bool>;
  t.send(p);
  { t.wait() } -> std::convertible_to<bool>;
  { t.stopped() } -> std::convertible_to<bool>;
  t.shutdown();
};

/// The port interface an algorithm transcription compiles against:
/// non-blocking receive, send, and an *awaitable* wait for the next pulse
/// (which the harness can interrupt once global quiescence is certain).
/// wait_any()'s awaitable must resume with `bool`: false when the harness
/// stopped the run, true otherwise. True does NOT promise a pulse —
/// wakeups may be spurious, so transcriptions re-poll recv() and wait
/// again.
///
/// wait_any() may sleep until a pulse arrives on a port whose recv() came
/// back empty since the node's last wait, or on either port if none did
/// (the coroutine executor does exactly this). A transcription therefore
/// waits only after a loop iteration whose recv() calls all came back
/// empty: a pulse on a port it has not polled since its last wait need not
/// wake it.
template <class Io>
concept PulsePort = requires(Io io, sim::Port p) {
  { io.recv(p) } -> std::convertible_to<bool>;
  io.send(p);
  io.wait_any();  // awaitable; resumes with bool
};

/// Adapts any Transport into a blocking-flavor PulsePort: the wait_any()
/// awaitable performs the blocking Transport::wait() inside await_ready()
/// and always reports ready, so the coroutine never actually suspends —
/// resuming it once runs the algorithm to completion exactly as a plain
/// blocking function would, on the thread that resumed it.
///
/// T is held by value: substrate handles (src/net's EndpointIo) are small
/// copyable views into fabric-owned state, mirroring CoroIo.
template <Transport T>
class TransportPort {
 public:
  explicit TransportPort(T t) : t_(std::move(t)) {}

  bool recv(sim::Port p) { return t_.recv(p); }
  void send(sim::Port p) { t_.send(p); }
  struct WaitAnyAwaiter {
    T& t;
    bool result = false;
    bool await_ready() {
      result = t.wait();  // the blocking wait happens here
      return true;        // never suspend
    }
    void await_suspend(std::coroutine_handle<>) {}
    bool await_resume() const { return result; }
  };
  WaitAnyAwaiter wait_any() { return WaitAnyAwaiter{t_}; }

  /// The wrapped transport (harness-side access to counters/teardown).
  T& transport() { return t_; }

 private:
  T t_;
};

}  // namespace colex::rt
