#include "coro/run.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace colex::coro {

CoroRunResult run_on_coro(const std::vector<std::uint64_t>& ids,
                          const std::vector<bool>& port_flips,
                          rt::ThreadAlg alg, const CoroRunOptions& options) {
  COLEX_EXPECTS(!ids.empty());
  const std::size_t n = ids.size();
  Executor ex(n, port_flips,
              ExecutorOptions{options.workers, options.timeout_ms,
                              options.metrics});

  // Spawn the template transcriptions over CoroIo.
  // The tasks own the coroutine frames; the executor only borrows handles.
  std::vector<rt::ElectionTask> tasks;
  tasks.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    tasks.push_back(
        rt::spawn_alg(alg, ex.io(v), ids[static_cast<std::size_t>(v)]));
    ex.bind(v, tasks.back().handle());
  }

  CoroRunResult result;
  result.completed = ex.run();
  result.pulses = ex.total_sent();
  result.stats = ex.stats();
  if (!result.completed) result.stall_dump = ex.stall_dump();

  result.outcomes.reserve(n);
  for (const auto& task : tasks) {
    result.outcomes.push_back(task.outcome());  // rethrows algorithm errors
  }
  rt::tally_leaders(result);
  if (options.metrics != nullptr) {
    // Per-phase pulse/wait series plus the Theorem 1 margin (the fabric is
    // clean: no injected pulses to exclude).
    rt::publish_phase_pulses(*options.metrics, "coro.pulses", result.outcomes,
                             "coro.waits");
    const std::uint64_t bound =
        rt::pulse_bound(alg, n, *std::max_element(ids.begin(), ids.end()));
    options.metrics->gauge("coro.pulse_bound").set(static_cast<double>(bound));
    options.metrics->gauge("coro.pulse_margin")
        .set(static_cast<double>(bound) - static_cast<double>(result.pulses));
  }
  return result;
}

}  // namespace colex::coro
