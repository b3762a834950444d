// E17 — the live telemetry plane: what observability costs, and what it
// proves. Three measurements, all gated in BENCH_E17.json (the check that
// the plane costs exactly nothing when off is the tier-1 test
// CoroExecutor.RegistryLeavesTheElectionExact):
//
//  * Telemetry overhead under load: a 256-ring soak under steady churn with
//    the full plane armed (live /metrics server, periodic snapshot file,
//    per-phase counters, flight recorder) vs the same soak with everything
//    off, run as adjacent dark/armed pairs after a discarded warmup (9
//    pairs, 3 in --smoke). Gate: the MEDIAN paired ratio armed/dark >=
//    0.97 — telemetry may cost at most 3% of soak throughput in the typical
//    pair. Every ratio is recorded, with its min and max.
//  * Live scrape mid-soak: while the armed soak runs, an in-process client
//    scrapes 127.0.0.1:<ephemeral>/metrics and must see the headline
//    election counter plus every per-phase pulse series; /healthz and
//    /debug/flight must answer too.
//  * Phase attribution is conservation-exact: on clean churn the merged
//    `pulses{phase=...}` series must sum to the fabric's `svc.pulses`
//    counter — on both the sim and coro backends. (Under loss-y churn the
//    phase sum may legitimately exceed the conservation counter by the
//    dropped count; see svc/supervisor.hpp.)
//
// Flags: --smoke (CI-sized durations), --json <dir> (redirect artifact).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/serve.hpp"
#include "sim/types.hpp"
#include "svc/soak.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

// --- soak configurations --------------------------------------------------

svc::SoakOptions base_soak(double duration, std::uint64_t seed) {
  svc::SoakOptions o;
  o.duration_seconds = duration;
  o.rings = 256;
  o.shards = 4;
  o.seed = seed;
  o.churn = svc::ChurnProfile::preset(svc::ChurnPreset::steady);
  return o;
}

/// One throughput sample of `base`; folds the service gate into `all_ok`.
double soak_elections_per_second(const svc::SoakOptions& base,
                                 std::uint64_t seed_offset, bool& all_ok) {
  svc::SoakOptions o = base;
  o.seed = base.seed + seed_offset;
  const svc::SoakReport r = svc::run_soak(o);
  all_ok = all_ok && r.ok();
  return r.elections_per_second;
}

/// Sum of the merged per-phase pulse counters (const-safe: a merged report
/// registry resolves existing series only).
std::uint64_t phase_sum(obs::Registry& reg) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    sum += reg.counter(obs::labeled("pulses", "phase", sim::phase_name(i)))
               .value();
  }
  return sum;
}

struct ScrapeProbe {
  bool served = false;         ///< on_serve fired with a bound port
  bool metrics_ok = false;     ///< /metrics had elections + all phase series
  bool healthz_ok = false;
  bool flight_ok = false;
  std::uint16_t port = 0;
  std::uint64_t scraped_elections = 0;
};

/// Runs an armed soak and scrapes it from this thread mid-run.
ScrapeProbe scrape_probe_soak(svc::SoakOptions options) {
  ScrapeProbe probe;
  std::mutex m;
  std::condition_variable cv;
  options.serve = 0;  // ephemeral port
  options.on_serve = [&probe, &m, &cv](std::uint16_t port) {
    {
      const std::lock_guard<std::mutex> lock(m);
      probe.port = port;
      probe.served = true;
    }
    cv.notify_all();
  };
  std::thread soak([&options] { svc::run_soak(options); });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait_for(lock, std::chrono::seconds(10),
                [&probe] { return probe.served; });
  }
  if (probe.served) {
    // Let elections land on every shard, then scrape while the run is hot.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(options.duration_seconds * 250)));
    int status = 0;
    std::string body;
    if (obs::http_get("127.0.0.1", probe.port, "/metrics", status, body) &&
        status == 200) {
      bool ok = body.find("colex_elections_total ") != std::string::npos;
      for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
        const std::string series = std::string("colex_pulses_total{phase=\"") +
                                   sim::phase_name(i) + "\"} ";
        ok = ok && body.find(series) != std::string::npos;
      }
      probe.metrics_ok = ok;
      const std::size_t at = body.find("\ncolex_elections_total ");
      if (at != std::string::npos) {
        probe.scraped_elections = std::strtoull(
            body.c_str() + at + std::strlen("\ncolex_elections_total "),
            nullptr, 10);
      }
    }
    if (obs::http_get("127.0.0.1", probe.port, "/healthz", status, body)) {
      probe.healthz_ok = status == 200 && body == "ok\n";
    }
    if (obs::http_get("127.0.0.1", probe.port, "/debug/flight", status,
                      body)) {
      probe.flight_ok =
          status == 200 && body.find("flight recorder tail") != std::string::npos;
    }
  }
  soak.join();
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::banner(
      "E17 — live telemetry plane: cost and fidelity",
      "phase-aware election metrics served live over /metrics must cost "
      "<=3% soak throughput and attribute every pulse to an algorithm "
      "phase with conservation-exact sums");

  bench::JsonReport report("E17", "telemetry overhead and fidelity gates");
  bench::apply_json_flag(report, argc, argv);
  bench::WallTimer total;

  // --- Gate 1: armed-vs-dark soak throughput. ---------------------------
  // Run-to-run soak throughput swings far more than any plausible telemetry
  // cost (CPU boost ramp, cache state — samples in one process climb 2-3x
  // from cold to warm), so one warmup soak is discarded, then dark/armed
  // run as adjacent pairs and the gate reads the median paired ratio
  // armed/dark >= 0.97, i.e. telemetry overhead <= 3% in the typical pair.
  const double duration = smoke ? 2.0 : 6.0;
  const std::size_t reps = smoke ? 3 : 9;
  bool soaks_ok = true;
  const svc::SoakOptions dark_opts = base_soak(duration, 21);
  svc::SoakOptions armed_opts = base_soak(duration, 21);
  armed_opts.serve = 0;
  armed_opts.on_serve = [](std::uint16_t) {};
  armed_opts.snapshot_path = "BENCH_E17_snapshot.jsonl";
  soak_elections_per_second(dark_opts, 100, soaks_ok);  // warmup, discarded
  double dark = 0.0, armed = 0.0;
  std::vector<double> ratios;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double d = soak_elections_per_second(dark_opts, rep, soaks_ok);
    const double a = soak_elections_per_second(armed_opts, rep, soaks_ok);
    std::cout << "  rep " << rep << ": dark " << util::Table::fixed(d, 0)
              << " elections/s, armed " << util::Table::fixed(a, 0)
              << " elections/s (ratio "
              << util::Table::fixed(d > 0.0 ? a / d : 0.0, 3) << ")\n";
    dark = std::max(dark, d);
    armed = std::max(armed, a);
    ratios.push_back(d > 0.0 ? a / d : 0.0);
  }
  const util::Summary ratio = util::summarize(ratios);
  const double overhead = 1.0 - ratio.p50;
  const bool overhead_ok = soaks_ok && overhead <= 0.03;
  std::cout << "\nsoak throughput: dark "
            << util::Table::fixed(dark, 0) << " elections/s best, armed "
            << util::Table::fixed(armed, 0)
            << " elections/s best; paired ratio median "
            << util::Table::fixed(ratio.p50, 3) << " (min "
            << util::Table::fixed(ratio.min, 3) << ", max "
            << util::Table::fixed(ratio.max, 3) << "), overhead "
            << util::Table::fixed(overhead * 100.0, 2) << "% (gate <= 3%)\n";

  // --- Gate 2: live scrape mid-soak. ------------------------------------
  const ScrapeProbe probe =
      scrape_probe_soak(base_soak(smoke ? 3.0 : 5.0, 33));
  const bool scrape_ok = probe.served && probe.metrics_ok &&
                         probe.healthz_ok && probe.flight_ok;
  std::cout << "live scrape: " << (scrape_ok ? "ok" : "FAILED") << " (port "
            << probe.port << ", " << probe.scraped_elections
            << " elections on the wire mid-run)\n";

  // --- Gate 3: phase attribution sums to the conservation counter. ------
  bool phase_ok = true;
  std::uint64_t sim_phase_sum = 0, sim_pulses = 0;
  std::uint64_t coro_phase_sum = 0, coro_pulses = 0;
  // calm still churns a little; zero fault_fraction makes every first
  // attempt provably trivial, so no pulse is ever dropped and the phase
  // sums must hit the conservation counter exactly.
  svc::ChurnProfile clean_profile =
      svc::ChurnProfile::preset(svc::ChurnPreset::calm);
  clean_profile.fault_fraction = 0.0;
  {
    svc::SoakOptions clean = base_soak(smoke ? 2.0 : 4.0, 5);
    clean.churn = clean_profile;
    svc::SoakReport r = svc::run_soak(clean);
    sim_phase_sum = phase_sum(r.metrics);
    sim_pulses = r.metrics.counter("svc.pulses").value();
    phase_ok = phase_ok && r.ok() && sim_phase_sum == sim_pulses;
  }
  {
    svc::SoakOptions clean = base_soak(smoke ? 2.0 : 4.0, 6);
    clean.churn = clean_profile;
    clean.policy.backend = svc::SoakBackend::coro;
    svc::SoakReport r = svc::run_soak(clean);
    coro_phase_sum = phase_sum(r.metrics);
    coro_pulses = r.metrics.counter("svc.pulses").value();
    phase_ok = phase_ok && r.ok() && coro_phase_sum == coro_pulses &&
               r.coro_attempts > 0;
  }
  std::cout << "phase sums (clean churn): sim " << sim_phase_sum << " vs "
            << sim_pulses << ", coro " << coro_phase_sum << " vs "
            << coro_pulses << " — "
            << (phase_ok ? "conservation-exact" : "MISMATCH") << "\n";

  // --- Artifact. --------------------------------------------------------
  bench::Json ratio_list = bench::Json::array();
  for (const double r : ratios) ratio_list.push(r);
  bench::Json jo = bench::Json::object();
  jo.set("check", "telemetry_overhead")
      .set("dark_elections_per_sec", dark)
      .set("armed_elections_per_sec", armed)
      .set("pairs", static_cast<std::uint64_t>(reps))
      .set_json("paired_ratios", std::move(ratio_list))
      .set("median_paired_ratio", ratio.p50)
      .set("min_paired_ratio", ratio.min)
      .set("max_paired_ratio", ratio.max)
      .set("overhead_fraction", overhead)
      .set("max_overhead_fraction", 0.03);
  report.add_result(std::move(jo));
  bench::Json js = bench::Json::object();
  js.set("check", "live_scrape")
      .set("served", probe.served)
      .set("metrics_ok", probe.metrics_ok)
      .set("healthz_ok", probe.healthz_ok)
      .set("flight_ok", probe.flight_ok)
      .set("scraped_elections", probe.scraped_elections);
  report.add_result(std::move(js));
  bench::Json jp = bench::Json::object();
  jp.set("check", "phase_sum")
      .set("sim_phase_sum", sim_phase_sum)
      .set("sim_pulses", sim_pulses)
      .set("coro_phase_sum", coro_phase_sum)
      .set("coro_pulses", coro_pulses);
  report.add_result(std::move(jp));

  const bool ok = overhead_ok && scrape_ok && phase_ok;
  report.root()
      .set("smoke", smoke)
      .set("gate_overhead_ok", overhead_ok)
      .set("gate_live_scrape_ok", scrape_ok)
      .set("gate_phase_sum_ok", phase_ok)
      .set("gate_ok", ok);
  report.finish(total.seconds());

  bench::verdict(
      ok,
      "telemetry cost " + util::Table::fixed(overhead * 100.0, 2) +
          "% of soak throughput when armed, served live mid-soak, with "
          "per-phase pulse series summing to the "
          "fabric's conservation counters on clean churn");
  return ok ? 0 : 1;
}
