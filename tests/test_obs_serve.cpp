// The live telemetry plane: Prometheus text encoder, snapshot reload,
// the /metrics HTTP server, the flight recorder, and the per-phase pulse
// series on the coroutine executor and the socket backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "coro/run.hpp"
#include "net/run.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "runtime/blocking_algs.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::obs {
namespace {

// --- Prometheus text encoder ---------------------------------------------

TEST(Prometheus, CountersGainPrefixAndTotalSuffix) {
  Registry reg;
  reg.counter("elections").inc(3);
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE colex_elections_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("colex_elections_total 3\n"), std::string::npos);
}

TEST(Prometheus, LabeledNamesSplitIntoLabelSets) {
  Registry reg;
  reg.counter(labeled("pulses", "phase", "probe")).inc(7);
  reg.counter(labeled("pulses", "phase", "elected")).inc(2);
  const std::string text = to_prometheus(reg);
  // One family, one TYPE line, contiguous samples.
  EXPECT_NE(text.find("# TYPE colex_pulses_total counter\n"
                      "colex_pulses_total{phase=\"probe\"} 7\n"
                      "colex_pulses_total{phase=\"elected\"} 2\n"),
            std::string::npos);
}

TEST(Prometheus, SanitizesInvalidNameCharacters) {
  Registry reg;
  reg.counter("svc.elections.started").inc(1);
  reg.gauge("rt.wait-ms").set(2.0);
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("colex_svc_elections_started_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("colex_rt_wait_ms 2\n"), std::string::npos);
}

TEST(Prometheus, EscapesLabelValues) {
  Registry reg;
  reg.counter(labeled("odd", "k", "a\"b\\c\nd")).inc(1);
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("colex_odd_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(Prometheus, HistogramRendersCumulativeBuckets) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.record(0.5);
  h.record(1.0);   // inclusive edge -> le="1"
  h.record(5.0);
  h.record(100.0); // overflow -> only +Inf
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE colex_lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("colex_lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("colex_lat_bucket{le=\"10\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("colex_lat_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("colex_lat_sum 106.5\n"), std::string::npos);
  EXPECT_NE(text.find("colex_lat_count 4\n"), std::string::npos);
}

TEST(Prometheus, GaugeTypeLine) {
  Registry reg;
  reg.gauge("uptime").set(1.5);
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE colex_uptime gauge\ncolex_uptime 1.5\n"),
            std::string::npos);
}

// --- snapshot reload (the recorded view) ----------------------------------

TEST(SnapshotReload, RoundTripsRendersByteIdentically) {
  Registry reg;
  reg.counter("elections").inc(41);
  reg.counter(labeled("pulses", "phase", "probe")).inc(9);
  reg.gauge("svc.uptime_seconds").set(12.25);
  Histogram& h = reg.histogram("svc.election_ms", {0.5, 2.5});
  h.record(0.1);
  h.record(3.0);
  const Registry reloaded = registry_from_json(reg.to_json());
  // One encoder, two views: identical registries render byte-identically.
  EXPECT_EQ(to_prometheus(reg), to_prometheus(reloaded));
  EXPECT_EQ(reloaded.to_json(), reg.to_json());
}

TEST(SnapshotReload, UnescapesNames) {
  Registry reg;
  reg.counter("a\"b\\c").inc(5);
  const Registry reloaded = registry_from_json(reg.to_json());
  EXPECT_EQ(reloaded.to_json(), reg.to_json());
}

TEST(SnapshotReload, ControlBytesInNamesRoundTrip) {
  Registry reg;
  reg.counter("x\ry\x01").inc(2);
  const std::string json = reg.to_json();
  for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  const Registry reloaded = registry_from_json(json);
  ASSERT_EQ(reloaded.counters().size(), 1u);
  EXPECT_EQ(reloaded.counters()[0].first, "x\ry\x01");
  EXPECT_EQ(reloaded.counters()[0].second->value(), 2u);
}

TEST(SnapshotReload, RejectsMalformedInput) {
  EXPECT_THROW(registry_from_json("{\"counters\":"),
               util::ContractViolation);
  EXPECT_THROW(registry_from_json("not json"), util::ContractViolation);
}

// --- the HTTP endpoint ----------------------------------------------------

TEST(MetricsServer, ServesMetricsHealthzAndFlight) {
  Registry reg;
  reg.counter("elections").inc(17);
  MetricsServer::Options opts;
  opts.port = 0;  // ephemeral
  opts.metrics = [&reg] { return reg; };
  opts.flight = [] { return std::string("flight tail\n"); };
  MetricsServer server(std::move(opts));
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/metrics", status, body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("colex_elections_total 17\n"), std::string::npos);

  ASSERT_TRUE(http_get("localhost", server.port(), "/healthz", status, body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  ASSERT_TRUE(
      http_get("127.0.0.1", server.port(), "/debug/flight", status, body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "flight tail\n");

  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/nope", status, body));
  EXPECT_EQ(status, 404);

  // Scrapes see registry updates made between requests.
  reg.counter("elections").inc(3);
  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/metrics", status, body));
  EXPECT_NE(body.find("colex_elections_total 20\n"), std::string::npos);

  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
}

TEST(MetricsServer, FlightEndpoint404sWhenUnwired) {
  Registry reg;
  MetricsServer::Options opts;
  opts.metrics = [&reg] { return reg; };
  MetricsServer server(std::move(opts));
  ASSERT_TRUE(server.start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      http_get("127.0.0.1", server.port(), "/debug/flight", status, body));
  EXPECT_EQ(status, 404);
}

// --- flight recorder ------------------------------------------------------

TEST(FlightRing, KeepsTheMostRecentEventsAfterWrap) {
  FlightRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.record("event", i);
  EXPECT_EQ(ring.recorded(), 10u);
  const std::vector<FlightEvent> tail = ring.snapshot();
  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, 6u + i);  // survivors are the last capacity
    EXPECT_EQ(tail[i].a, 6u + i);
    EXPECT_STREQ(tail[i].what, "event");
  }
}

TEST(FlightRing, SnapshotUnderConcurrentWriterStaysConsistent) {
  FlightRing ring(8);
  std::atomic<bool> stop{false};
  std::thread writer([&ring, &stop] {
    std::uint64_t i = 0;
    while (!stop.load()) {
      ring.record("w", i, i * 2);
      ++i;
    }
  });
  // Every snapshotted event must be internally consistent (b == 2a) and in
  // ascending seq order — torn slots are skipped, never surfaced.
  for (int round = 0; round < 200; ++round) {
    const std::vector<FlightEvent> snap = ring.snapshot();
    for (std::size_t i = 0; i < snap.size(); ++i) {
      EXPECT_EQ(snap[i].b, snap[i].a * 2);
      if (i > 0) {
        EXPECT_LT(snap[i - 1].seq, snap[i].seq);
      }
    }
  }
  stop.store(true);
  writer.join();
}

TEST(FlightRecorder, MergesRingsWrittenByJoinedThreads) {
  FlightRecorder rec(16);
  // Rings created before the writers start (the setup contract).
  FlightRing& r0 = rec.ring("worker.0");
  FlightRing& r1 = rec.ring("worker.1");
  EXPECT_EQ(rec.ring_count(), 2u);
  EXPECT_EQ(&rec.ring("worker.0"), &r0);  // create-or-get is stable
  std::thread t0([&r0] {
    for (std::uint64_t i = 0; i < 5; ++i) r0.record("zero", i);
  });
  std::thread t1([&r1] {
    for (std::uint64_t i = 0; i < 5; ++i) r1.record("one", i);
  });
  t0.join();
  t1.join();
  const auto merged = rec.merged_tail(0);
  ASSERT_EQ(merged.size(), 10u);
  // Interleaved by timestamp: monotone non-decreasing across the merge.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].second.t_ns, merged[i].second.t_ns);
  }
  const std::string text = rec.render_tail(3);
  EXPECT_NE(text.find("flight recorder tail (3 events, 2 rings):"),
            std::string::npos);
}

TEST(FlightRecorder, MergedTailCapsToTheMostRecent) {
  FlightRecorder rec(8);
  FlightRing& ring = rec.ring("only");
  for (std::uint64_t i = 0; i < 6; ++i) ring.record("e", i);
  const auto tail = rec.merged_tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].second.a, 4u);
  EXPECT_EQ(tail[1].second.a, 5u);
}

// --- per-phase pulse series on the runtimes -------------------------------

std::uint64_t phase_series_sum(obs::Registry& reg, const std::string& family) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    sum += reg.counter(labeled(family, "phase", sim::phase_name(i))).value();
  }
  return sum;
}

TEST(PhaseSeries, CoroPulsesSumToFabricTotal) {
  const std::vector<std::uint64_t> ids = {3, 9, 6, 2};
  Registry reg;
  coro::CoroRunOptions opts;
  opts.workers = 2;
  opts.metrics = &reg;
  const coro::CoroRunResult r =
      coro::run_on_coro(ids, {}, rt::ThreadAlg::alg2, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(phase_series_sum(reg, "coro.pulses"), r.pulses);
  EXPECT_EQ(reg.gauge("coro.pulse_bound").value(),
            static_cast<double>(ids.size() * (2 * 9 + 1)));
  EXPECT_GE(reg.gauge("coro.pulse_margin").value(), 0.0);
  // The termination pulse is attributed to the initiator's wait phase.
  EXPECT_GT(reg.counter(labeled("coro.pulses", "phase", "initiated_wait"))
                .value(),
            0u);
  // Every node ended in the done phase (Algorithm 2 terminates), and the
  // distribution gauges say so.
  EXPECT_EQ(reg.gauge(labeled("coro.phase_nodes", "phase", "done")).value(),
            static_cast<double>(ids.size()));
}

TEST(PhaseSeries, SocketPulsesSumToFabricTotal) {
  const std::vector<std::uint64_t> ids = {3, 9, 6, 2};
  Registry reg;
  net::SocketRunOptions opts;
  opts.metrics = &reg;
  const net::SocketRunResult r =
      net::run_on_sockets(ids, {}, rt::ThreadAlg::alg2, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(phase_series_sum(reg, "net.pulses"), r.pulses);
  // Algorithm 2 meets Theorem 1's bound exactly, so the margin is zero.
  EXPECT_EQ(reg.gauge("net.pulse_bound").value(),
            static_cast<double>(ids.size() * (2 * 9 + 1)));
  EXPECT_EQ(reg.gauge("net.pulse_margin").value(), 0.0);
  EXPECT_GT(reg.counter(labeled("net.pulses", "phase", "initiated_wait"))
                .value(),
            0u);
  // The wire counters are the run's own, published once after the join.
  EXPECT_EQ(reg.counter("net.bytes_tx").value(), r.wire.bytes_tx);
  EXPECT_EQ(reg.counter("net.bytes_rx").value(), r.wire.bytes_rx);
  EXPECT_EQ(reg.counter("net.probe_rounds").value(), r.probe_rounds);
  EXPECT_GE(r.probe_rounds, 2u);
}

TEST(PhaseSeries, OutcomesCarryAlwaysOnPhaseTallies) {
  // No registry attached: the per-outcome arrays still fill (plain
  // coroutine locals), so zero-overhead-when-off loses no information.
  const std::vector<std::uint64_t> ids = {2, 5, 3};
  const coro::CoroRunResult r =
      coro::run_on_coro(ids, {}, rt::ThreadAlg::alg2, {2, 30'000, nullptr});
  ASSERT_TRUE(r.completed);
  std::uint64_t total = 0;
  for (const auto& out : r.outcomes) {
    total += std::accumulate(out.phase_sends.begin(), out.phase_sends.end(),
                             std::uint64_t{0});
  }
  EXPECT_EQ(total, r.pulses);
}

}  // namespace
}  // namespace colex::obs
