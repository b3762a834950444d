// Whole-run facades for the socket backend: the same election the
// simulator and the coroutine executor run, but over real TCP
// connections — in-process (one thread per node, ephemeral ports) or
// multi-process (one forked process per node, the harness for colex-ring
// and the E18 bench). Both return the substrate-agnostic
// rt::TransportRunResult shape, so the conformance suite compares all four
// substrates field by field.
#pragma once

#include <cstdint>
#include <vector>

#include "net/coordinator.hpp"
#include "net/node.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "runtime/blocking_algs.hpp"

namespace colex::net {

struct SocketRunOptions {
  std::uint64_t timeout_ms = 30'000;
  /// 0: kernel-assigned ephemeral data ports (the default — collision-free
  /// for parallel test runs). Non-zero: node v listens on base_port + v,
  /// the deterministic assignment colex-ring advertises.
  std::uint16_t base_port = 0;
  /// Optional: receives the per-phase pulse/wait series, event-loop wire
  /// counters and the Theorem 1 margin after the run (post-join publishing,
  /// per the registry's single-writer contract).
  obs::Registry* metrics = nullptr;
  /// Optional: one ring per node plus one for the coordinator, recording
  /// formation/report/probe/stop milestones (in-process runs only — a
  /// forked node cannot share the parent's recorder).
  obs::FlightRecorder* flight = nullptr;
};

/// Socket-substrate run result: the cross-substrate core plus the wire
/// telemetry only this backend has.
struct SocketRunResult : rt::TransportRunResult {
  std::uint64_t consumed = 0;      ///< Σ consumed (== pulses at quiescence)
  std::uint64_t probe_rounds = 0;  ///< quiescence confirmation rounds
  EndpointCounters wire;           ///< summed per-node event-loop counters
};

/// Runs `alg` on a real-socket ring with one thread per node, all on
/// 127.0.0.1. Same signature shape as run_on_coro.
SocketRunResult run_on_sockets(const std::vector<std::uint64_t>& ids,
                               const std::vector<bool>& port_flips,
                               rt::ThreadAlg alg,
                               const SocketRunOptions& options = {});

/// Stage boundaries of one run_on_sockets call, read from the coordinator's
/// ring of SocketRunOptions::flight: GO ends formation, the first PROBE
/// ends the election, "quiescent" ends quiescence detection, and
/// "complete" (every RESULT in) ends teardown. Steady-clock nanoseconds,
/// as obs::FlightEvent stamps them; 0 where the ring lacks the event.
struct RunStages {
  std::uint64_t go_ns = 0;
  std::uint64_t probe_ns = 0;
  std::uint64_t quiescent_ns = 0;
  std::uint64_t complete_ns = 0;

  bool complete() const {
    return go_ns != 0 && probe_ns != 0 && quiescent_ns != 0 &&
           complete_ns != 0;
  }
};

RunStages run_stages(obs::FlightRecorder& flight);

struct MultiProcOptions {
  std::uint64_t timeout_ms = 30'000;
  std::uint16_t base_port = 0;  ///< as SocketRunOptions::base_port
};

/// Multi-process run result. Outcomes are reassembled from the nodes'
/// RESULT wire frames — the coordinator is the only surviving observer.
struct MultiProcResult : rt::TransportRunResult {
  std::uint64_t consumed = 0;
  std::uint64_t probe_rounds = 0;
  std::vector<int> exit_codes;  ///< per node, index order
};

/// Forks one process per node (the coordinator stays in the caller), runs
/// the election, reaps the children. Call only while the process is still
/// single-threaded — fork() and threads do not mix.
MultiProcResult run_multiprocess(const std::vector<std::uint64_t>& ids,
                                 const std::vector<bool>& port_flips,
                                 rt::ThreadAlg alg,
                                 const MultiProcOptions& options = {});

}  // namespace colex::net
