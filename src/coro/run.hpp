// One election on the coroutine executor: the template transcriptions in
// runtime/blocking_algs.hpp, reported in the shared rt::TransportRunResult
// shape, executed as n coroutines on a few worker threads — rings of a
// million nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coro/executor.hpp"
#include "runtime/blocking_algs.hpp"

namespace colex::coro {

struct CoroRunOptions {
  std::size_t workers = 1;        ///< executor worker threads
  std::uint64_t timeout_ms = 30'000;  ///< stall watchdog budget
  obs::Registry* metrics = nullptr;   ///< merged per-worker registries
};

/// The substrate-agnostic rt::TransportRunResult shape plus the executor's
/// scheduler telemetry (fault runs: coro/faults.hpp).
struct CoroRunResult : rt::TransportRunResult {
  ExecStats stats;               ///< scheduler telemetry (always on)
};

/// Runs one election over n = ids.size() nodes on the coroutine executor.
/// `port_flips` must be empty for the oriented algorithms.
CoroRunResult run_on_coro(const std::vector<std::uint64_t>& ids,
                          const std::vector<bool>& port_flips,
                          rt::ThreadAlg alg,
                          const CoroRunOptions& options = {});

}  // namespace colex::coro
