#include "runtime/blocking_algs.hpp"

#include <thread>

#include "util/contracts.hpp"

namespace colex::rt {

// The synchronous entry points instantiate the template coroutines over
// BlockingPortAdapter, whose wait_any() blocks inside await_ready() and
// never suspends: one resume runs the algorithm to completion on the
// calling thread, byte-for-byte the pre-coroutine blocking behavior.

BlockingOutcome run_alg1_blocking(NodeIo io, std::uint64_t id) {
  return drive_blocking(run_alg1(BlockingPortAdapter(io), id));
}

BlockingOutcome run_alg2_blocking(NodeIo io, std::uint64_t id) {
  return drive_blocking(run_alg2(BlockingPortAdapter(io), id));
}

BlockingOutcome run_alg3_blocking(NodeIo io, std::uint64_t id,
                                  co::IdScheme scheme) {
  return drive_blocking(run_alg3(BlockingPortAdapter(io), id, scheme));
}

ThreadRunResult run_on_threads(const std::vector<std::uint64_t>& ids,
                               const std::vector<bool>& port_flips,
                               ThreadAlg alg, std::uint64_t timeout_ms,
                               ChaosScript chaos, obs::Registry* metrics) {
  COLEX_EXPECTS(!ids.empty());
  const std::size_t n = ids.size();
  ThreadRing ring(n, port_flips);
  ring.set_metrics(metrics);  // before any worker starts

  ThreadRunResult result;
  result.outcomes.resize(n);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    workers.emplace_back([&ring, &result, &ids, alg, v] {
      BlockingOutcome out;
      std::uint64_t restarts = 0;
      for (;;) {
        // Read the epoch before binding the io handle: if a crash slips in
        // between, the handle is dead and the epoch comparison below still
        // routes us into the recovery path.
        const std::uint64_t epoch = ring.crash_epoch(v);
        out = drive_blocking(
            spawn_alg(alg, BlockingPortAdapter(ring.io(v)), ids[v]));
        if (ring.crash_epoch(v) == epoch) break;  // normal stop/termination
        // The node crash-stopped mid-run: whatever the dead incarnation
        // computed is gone with it.
        out = BlockingOutcome{};
        out.id = ids[v];
        out.stopped = true;
        if (!ring.await_recovery(v)) break;  // run ended while still down
        ++restarts;  // recovered: re-run the algorithm from scratch
      }
      out.restarts = restarts;
      result.outcomes[v] = out;
      ring.worker_finished();
    });
  }

  std::thread chaos_thread;
  if (chaos) chaos_thread = std::thread([&ring, &chaos] { chaos(ring); });

  result.completed = ring.monitor(timeout_ms);
  if (chaos_thread.joinable()) chaos_thread.join();
  for (auto& w : workers) w.join();

  result.pulses = ring.total_sent();
  result.crashes = ring.crashes();
  result.recoveries = ring.recoveries();
  if (!result.completed) {
    result.stall_dump = ring.dump();  // publishes metrics as a side effect
  } else {
    ring.publish_metrics();
  }
  tally_leaders(result);
  if (metrics != nullptr) {
    publish_phase_pulses(*metrics, "rt.pulses", result.outcomes);
    // Theorem 1 margin as gauges, with injected pulses excluded — the
    // bound speaks about node sends.
    const std::uint64_t bound =
        pulse_bound(alg, n, *std::max_element(ids.begin(), ids.end()));
    metrics->gauge("rt.pulse_bound").set(static_cast<double>(bound));
    metrics->gauge("rt.pulse_margin")
        .set(static_cast<double>(bound) -
             static_cast<double>(result.pulses - ring.injected()));
  }
  return result;
}

}  // namespace colex::rt
