#include "net/run.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>

#include "util/contracts.hpp"

namespace colex::net {

namespace {

constexpr const char* kCoordinatorRing = "net.coordinator";

void publish_metrics(obs::Registry& metrics, const SocketRunResult& result,
                     const std::vector<std::uint64_t>& ids,
                     rt::ThreadAlg alg, const CoordinatorResult& cres) {
  rt::publish_phase_pulses(metrics, "net.pulses", result.outcomes,
                           "net.waits");
  metrics.counter("net.waits_entered").inc(result.wire.waits);
  metrics.counter("net.polls").inc(result.wire.polls);
  metrics.counter("net.flushes").inc(result.wire.flushes);
  metrics.counter("net.bytes_rx").inc(result.wire.bytes_rx);
  metrics.counter("net.bytes_tx").inc(result.wire.bytes_tx);
  metrics.counter("net.reports").inc(result.wire.reports);
  metrics.counter("net.probe_acks").inc(result.wire.probe_acks);
  metrics.counter("net.probe_rounds").inc(cres.probe_rounds);
  const std::uint64_t bound = rt::pulse_bound(
      alg, ids.size(), *std::max_element(ids.begin(), ids.end()));
  metrics.gauge("net.pulse_bound").set(static_cast<double>(bound));
  metrics.gauge("net.pulse_margin")
      .set(static_cast<double>(bound) - static_cast<double>(result.pulses));
}

}  // namespace

SocketRunResult run_on_sockets(const std::vector<std::uint64_t>& ids,
                               const std::vector<bool>& port_flips,
                               rt::ThreadAlg alg,
                               const SocketRunOptions& options) {
  COLEX_EXPECTS(!ids.empty());
  COLEX_EXPECTS(port_flips.empty() || port_flips.size() == ids.size());
  const std::uint32_t n = static_cast<std::uint32_t>(ids.size());
  SocketRunResult result;

  // Flight rings must all exist before any writer thread starts
  // (obs::FlightRecorder's setup-then-write contract).
  obs::FlightRing* coord_ring = nullptr;
  std::vector<obs::FlightRing*> node_rings(n, nullptr);
  if (options.flight != nullptr) {
    coord_ring = &options.flight->ring(kCoordinatorRing);
    for (std::uint32_t v = 0; v < n; ++v) {
      node_rings[v] = &options.flight->ring("net.node." + std::to_string(v));
    }
  }

  Coordinator coordinator(CoordinatorOptions{n, options.timeout_ms, 0,
                                             coord_ring});
  if (!coordinator.ok()) {
    result.stall_dump = coordinator.init_error();
    return result;
  }

  std::vector<NodeResult> node_results(n);
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    RingNodeConfig cfg;
    cfg.index = v;
    cfg.ring_size = n;
    cfg.id = ids[v];
    cfg.flip = !port_flips.empty() && port_flips[v];
    cfg.alg = alg;
    cfg.coordinator_port = coordinator.port();
    cfg.data_port =
        options.base_port == 0
            ? std::uint16_t{0}
            : static_cast<std::uint16_t>(options.base_port + v);
    cfg.timeout_ms = options.timeout_ms;
    cfg.flight = node_rings[v];
    workers.emplace_back(
        [&node_results, v, cfg] { node_results[v] = run_ring_node(cfg); });
  }
  CoordinatorResult cres = coordinator.run();
  for (std::thread& w : workers) w.join();

  result.completed = cres.completed;
  result.pulses = cres.total_sent;
  result.consumed = cres.total_consumed;
  result.probe_rounds = cres.probe_rounds;
  result.outcomes.reserve(n);
  std::string node_errors;
  for (std::uint32_t v = 0; v < n; ++v) {
    const NodeResult& nr = node_results[v];
    result.outcomes.push_back(nr.outcome);
    result.wire += nr.counters;
    if (!nr.ok) {
      result.completed = false;
      node_errors += "  " + nr.error + "\n";
    }
  }
  if (!result.completed) {
    result.stall_dump = cres.error.empty()
                            ? "socket run failed:\n" + node_errors
                            : cres.error + node_errors;
    if (options.flight != nullptr) {
      result.stall_dump += options.flight->render_tail(64);
    }
  }
  rt::tally_leaders(result);
  if (options.metrics != nullptr) {
    publish_metrics(*options.metrics, result, ids, alg, cres);
  }
  return result;
}

RunStages run_stages(obs::FlightRecorder& flight) {
  RunStages s;
  for (const obs::FlightEvent& e : flight.ring(kCoordinatorRing).snapshot()) {
    const std::string what = e.what;
    if (what == "go") s.go_ns = e.t_ns;
    if (what == "probe" && s.probe_ns == 0) s.probe_ns = e.t_ns;
    if (what == "quiescent") s.quiescent_ns = e.t_ns;
    if (what == "complete") s.complete_ns = e.t_ns;
  }
  return s;
}

MultiProcResult run_multiprocess(const std::vector<std::uint64_t>& ids,
                                 const std::vector<bool>& port_flips,
                                 rt::ThreadAlg alg,
                                 const MultiProcOptions& options) {
  COLEX_EXPECTS(!ids.empty());
  COLEX_EXPECTS(port_flips.empty() || port_flips.size() == ids.size());
  const std::uint32_t n = static_cast<std::uint32_t>(ids.size());
  MultiProcResult result;

  Coordinator coordinator(
      CoordinatorOptions{n, options.timeout_ms, 0, nullptr});
  if (!coordinator.ok()) {
    result.stall_dump = coordinator.init_error();
    return result;
  }

  std::vector<pid_t> children;
  children.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: drop the inherited coordinator listener, become node v.
      coordinator.close_listener_in_child();
      RingNodeConfig cfg;
      cfg.index = v;
      cfg.ring_size = n;
      cfg.id = ids[v];
      cfg.flip = !port_flips.empty() && port_flips[v];
      cfg.alg = alg;
      cfg.coordinator_port = coordinator.port();
      cfg.data_port =
          options.base_port == 0
              ? std::uint16_t{0}
              : static_cast<std::uint16_t>(options.base_port + v);
      cfg.timeout_ms = options.timeout_ms;
      const NodeResult nr = run_ring_node(cfg);
      // _exit, not exit: no atexit handlers, no flushing shared state the
      // parent still owns.
      ::_exit(nr.ok ? 0 : 1);
    }
    if (pid < 0) {
      for (const pid_t child : children) ::kill(child, SIGKILL);
      for (const pid_t child : children) ::waitpid(child, nullptr, 0);
      result.stall_dump = "fork failed for node " + std::to_string(v);
      return result;
    }
    children.push_back(pid);
  }

  const CoordinatorResult cres = coordinator.run();

  result.exit_codes.assign(n, -1);
  for (std::uint32_t v = 0; v < n; ++v) {
    int status = 0;
    if (::waitpid(children[v], &status, 0) == children[v] &&
        WIFEXITED(status)) {
      result.exit_codes[v] = WEXITSTATUS(status);
    }
  }

  result.completed = cres.completed;
  result.pulses = cres.total_sent;
  result.consumed = cres.total_consumed;
  result.probe_rounds = cres.probe_rounds;
  for (const DecodedResult& dr : cres.results) {
    result.outcomes.push_back(dr.outcome);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (result.exit_codes[v] != 0) result.completed = false;
  }
  if (!result.completed && result.stall_dump.empty()) {
    result.stall_dump = cres.error.empty()
                            ? "multi-process run: node exit codes not clean"
                            : cres.error;
  }
  rt::tally_leaders(result);
  return result;
}

}  // namespace colex::net
