// The live telemetry plane: Prometheus text exposition over obs::Registry,
// a registry loader for recorded snapshots, and a tiny blocking HTTP/1.1
// server that publishes merged metrics while a run is in flight.
//
// Exposition contract
// -------------------
// * One encoder, two views. write_prometheus() renders a Registry; the
//   live endpoint calls it on a just-merged snapshot and colex-inspect's
//   `metrics` subcommand calls it on a registry reloaded from a recorded
//   colex-trace-v1 file (registry_from_json). Identical registries render
//   byte-identically, so the two views are directly diffable.
// * Naming: registry names pass through sanitize (non [a-zA-Z0-9_:] chars
//   become '_'), gain the `colex_` namespace prefix, and counters gain the
//   conventional `_total` suffix. A `{k=v,...}` tail composed by
//   obs::labeled() is split back into a proper label set with label-value
//   escaping (backslash, double-quote, newline). Example:
//   counter `pulses{phase=probe}` -> `colex_pulses_total{phase="probe"}`.
// * Families are grouped: all samples of one family are contiguous under a
//   single `# TYPE` line, in first-registration order. Histograms render
//   cumulative `_bucket{le="..."}` series plus `+Inf`, `_sum`, `_count`.
//
// Endpoint contract
// -----------------
// GET /metrics      -> 200 text/plain; version=0.0.4, the exposition
// GET /healthz      -> 200 "ok\n" (liveness only; no registry access)
// GET /debug/flight -> 200 flight-recorder tail, or 404 if not wired
// anything else     -> 404. Connection: close on every response.
//
// The server binds 127.0.0.1 only (this is an introspection port, not a
// public listener) and runs one blocking accept loop on a background
// thread — scrape traffic is one reader every few seconds, not a workload
// worth an event loop. `port = 0` picks an ephemeral port; port() returns
// the bound one after start().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace colex::obs {

/// Renders the Prometheus text exposition (version 0.0.4) of `reg`.
void write_prometheus(std::ostream& os, const Registry& reg);
std::string to_prometheus(const Registry& reg);

/// Parses a Registry::write_json() snapshot (as embedded in colex-trace-v1
/// `metrics` lines and BENCH_E*.json) back into a Registry. Throws
/// util::ContractViolation on malformed input.
Registry registry_from_json(const std::string& text);

/// Blocking HTTP/1.1 introspection server on 127.0.0.1.
class MetricsServer {
 public:
  /// Produces the registry snapshot served by /metrics. Called on the
  /// server thread per scrape; must be safe to call concurrently with the
  /// run (typically: merge per-shard snapshot copies taken under their
  /// own locks).
  using SnapshotFn = std::function<Registry()>;
  /// Produces the /debug/flight body (typically FlightRecorder::render_tail).
  using TextFn = std::function<std::string()>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after start()
    SnapshotFn metrics;      ///< required
    TextFn flight;           ///< optional; /debug/flight 404s without it
  };

  explicit MetricsServer(Options options) : options_(std::move(options)) {}
  ~MetricsServer() { stop(); }
  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// Binds, listens, and spawns the serve thread. Returns false (with no
  /// thread spawned) if the socket setup fails — callers degrade to
  /// snapshot-file-only observability rather than aborting the run.
  bool start();

  /// The bound port (resolved after start(); 0 before).
  std::uint16_t port() const { return port_; }
  bool running() const { return listen_fd_ >= 0; }

  /// Stops the accept loop and joins the thread. Idempotent.
  void stop();

 private:
  void serve_loop();
  std::string respond(const std::string& path) const;

  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1 (`host` must be
/// "localhost" or a dotted quad) — the in-repo scrape client used by
/// colex-top, the tests, and ci.sh, so none of them need curl. Returns
/// false on connect/transport errors; on success fills `status` from the
/// status line and `body` with everything past the header block.
bool http_get(const std::string& host, std::uint16_t port,
              const std::string& path, int& status, std::string& body);

}  // namespace colex::obs
