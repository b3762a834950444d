// Scripted faults on the coroutine executor: the simulator's FaultPlan
// (sim/faults.hpp) applied to the blocking transcriptions on one real
// worker thread, where the executor is deterministic, so a plan replays
// exactly: the same outcomes, ExecStats and fault records. DESIGN.md §12.
//
//  * `at_event` counts starts plus deliveries: a node's first port
//    operation, and each recv() that takes a pulse (an executor channel is
//    its receiver's inbox). Channel ids are sim::Network::ring's. Endings
//    go through sim::classify_outcome; a watchdog abort has diverged.
//  * Supported: scripted crash, recover and spurious, and preseed_channels.
//    Refused with util::ContractViolation: drop, duplicate, channel
//    probabilities, more than one worker, and whatever
//    FaultPlan::validate() refuses (a scripted corrupt among them).
//  * A crash loses the node's pending pulses (`lost`, booked consumed) and
//    kills its incarnation; the node then counts as done and swallows what
//    reaches it. A recover restarts it from scratch on a fresh coroutine.
//    Crashing a node that has not started, is down or has terminated is a
//    no-op, as is recovering a node that is up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coro/run.hpp"
#include "sim/faults.hpp"

namespace colex::coro {

struct FaultRunResult : rt::TransportRunResult {
  ExecStats stats;                       ///< scheduler telemetry
  sim::FaultTallies tallies;             ///< faults actually applied
  std::vector<sim::FaultRecord> records; ///< in application order
  std::uint64_t lost = 0;  ///< pulses that died on a crashed node
  sim::FaultOutcome outcome = sim::FaultOutcome::recovered_correct;
  std::string diagnosis;   ///< classify_outcome's one-line explanation
};

/// Runs one election under `plan` on a one-worker executor. A node that is
/// down when the run ends reports a default outcome with `stopped` set.
/// The output counts as correct when the run settled with the maximum ID's
/// first holder as its only leader.
FaultRunResult run_on_coro_with_faults(const std::vector<std::uint64_t>& ids,
                                       const std::vector<bool>& port_flips,
                                       rt::ThreadAlg alg,
                                       const sim::FaultPlan& plan,
                                       const CoroRunOptions& options = {});

}  // namespace colex::coro
