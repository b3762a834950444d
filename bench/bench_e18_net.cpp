// E18 — real-socket transport: the same elections over actual TCP.
// The transport seam (runtime/transport.hpp) promises that the blocking
// transcriptions are substrate-blind; src/net cashes that in with 1-byte
// pulse frames over loopback TCP, per-neighbor sessions, and a coordinator
// that proves quiescence with a four-counter probe protocol. Measured
// here:
//
//  * Multi-process election FIRST (fork() is only safe while the process
//    is single-threaded): one OS process per node via net::run_multiprocess
//    — the paper's setting taken literally, n processes sharing nothing
//    but TCP connections. Algorithm 2, unique dense IDs: exactly
//    n(2·IDmax+1) pulses merged across processes.
//  * In-process socket sweep vs the coroutine executor on the identical
//    workload (Algorithm 1, IDmax=2, exactly 2n pulses): nodes/sec and
//    pulses/sec head to head at n = 8, 32, 128 (smoke: 8, 32).
//  * A socket Algorithm 2 run at the largest sweep size for a heavier
//    cross-validation point (n(2n+1) pulses through real kernel buffers).
//  * Where the wall time goes on perfbench's socket-ring shape (Algorithm
//    2, n=3, IDmax=2000): 5 elections (smoke: 3), each split into its four
//    stages (formation, elect, quiesce, teardown) from the coordinator's
//    flight ring, and the elect stage divided by the run's causal depth
//    (sim/depth.hpp, the same IDs under GlobalFifo) into µs per hop. The
//    election is one chain of ~12,000 hops, so per-hop latency, not pulse
//    throughput, is what a socket change moves. Medians are reported.
//
// Gates (recorded in BENCH_E18.json): every run completes with the exact
// paper-predicted pulse count and a unique max-ID leader; the multi-process
// merged total equals Theorem 1 AND every wire-level consumed count equals
// the sent count (nothing lost or duplicated by TCP framing); on the
// socket-ring shape the four stages sum to each election's wall time
// within 5%. There is no speed gate: a timing belongs in the comparison
// of two runs on one host, not in a fixed threshold.
//
// Flags: --smoke (CI-sized sweep), --json <dir> (redirect BENCH_E18.json).
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "co/alg2.hpp"
#include "co/election.hpp"
#include "coro/run.hpp"
#include "net/run.hpp"
#include "obs/flight.hpp"
#include "runtime/blocking_algs.hpp"
#include "sim/depth.hpp"
#include "sim/scheduler.hpp"
#include "util/cpus.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

/// IDmax=2 ring: Corollary 13 gives exactly 2n pulses, so the work per
/// node is constant and nodes/sec is comparable across substrates.
std::vector<std::uint64_t> sweep_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n, 1);
  ids[n / 2] = 2;
  return ids;
}

struct Row {
  std::string runtime;
  std::string algorithm;
  std::size_t n = 0;
  bool completed = false;
  bool exact = false;  ///< pulses == expected and exactly one leader
  std::uint64_t pulses = 0;
  std::uint64_t expected = 0;
  double seconds = 0.0;
  double nodes_per_sec = 0.0;
  double pulses_per_sec = 0.0;
};

Row make_row(const char* runtime, const char* algorithm, std::size_t n,
             bool completed, std::size_t leaders, std::uint64_t pulses,
             std::uint64_t expected, double seconds) {
  Row row;
  row.runtime = runtime;
  row.algorithm = algorithm;
  row.n = n;
  row.completed = completed;
  row.pulses = pulses;
  row.expected = expected;
  row.seconds = seconds;
  row.exact = completed && leaders == 1 && pulses == expected;
  if (completed && seconds > 0.0) {
    row.nodes_per_sec = static_cast<double>(n) / seconds;
    row.pulses_per_sec = static_cast<double>(pulses) / seconds;
  }
  return row;
}

bench::Json json_row(const Row& row) {
  bench::Json j = bench::Json::object();
  j.set("runtime", row.runtime)
      .set("algorithm", row.algorithm)
      .set("n", static_cast<std::uint64_t>(row.n))
      .set("completed", row.completed)
      .set("exact", row.exact)
      .set("pulses", row.pulses)
      .set("expected_pulses", row.expected)
      .set("seconds", row.seconds)
      .set("nodes_per_sec", row.nodes_per_sec)
      .set("pulses_per_sec", row.pulses_per_sec);
  if (row.runtime != "coro") {
    // Whether this ring's socket endpoints busy-read before sleeping.
    j.set("spin", net::spin_fits(row.n, util::usable_cpus()));
  }
  return j;
}

/// perfbench's socket-ring shape: Algorithm 2, n = 3, IDmax = 2000 at
/// varying positions next to two small distinct IDs.
const std::vector<std::vector<std::uint64_t>> kSocketRingIds = {
    {2000, 3, 7}, {4, 2000, 1}, {6, 2, 2000}, {2000, 9, 5}, {8, 2000, 3}};
constexpr std::uint64_t kSocketRingIdMax = 2000;
constexpr double kStageSumTolerance = 0.05;

/// Causal depth of the same election on the simulator under GlobalFifo:
/// the number of hops that must happen one after another.
std::uint64_t causal_depth(const std::vector<std::uint64_t>& ids) {
  auto net = sim::PulseNetwork::ring(ids.size());
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }
  sim::CausalDepthProbe probe;
  sim::RunOptions opts;
  probe.attach(net, opts);
  sim::GlobalFifoScheduler fifo;
  net.run(fifo, opts);
  return probe.depth();
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// User + system CPU seconds this process has used so far.
double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// One socket-ring election split into its stages.
struct StageSample {
  bool exact = false;      ///< exact count and one leader
  bool conserved = false;  ///< sent == consumed == bytes each way
  bool stages_ok = false;
  double formation_ms = 0.0, elect_ms = 0.0, quiesce_ms = 0.0,
         teardown_ms = 0.0;
  double sum_error = 0.0;  ///< |Σ stages − wall| / wall
  std::uint64_t depth = 0;
  double us_per_hop = 0.0;
  double cpu_s = 0.0;  ///< process CPU seconds over the election
  net::EndpointCounters wire;
};

StageSample socket_ring_election(const std::vector<std::uint64_t>& ids) {
  StageSample out;
  obs::FlightRecorder flight(256);
  net::SocketRunOptions o;
  o.timeout_ms = 60'000;
  o.flight = &flight;
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t t0 = steady_ns();
  const net::SocketRunResult r =
      net::run_on_sockets(ids, {}, rt::ThreadAlg::alg2, o);
  const std::uint64_t t_end = steady_ns();
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.wire = r.wire;
  const std::uint64_t expected =
      co::theorem1_pulses(ids.size(), kSocketRingIdMax);
  out.exact = r.completed && r.leader_count == 1 && r.pulses == expected &&
              r.leader && ids[*r.leader] == kSocketRingIdMax;
  out.conserved = r.consumed == r.pulses && r.wire.bytes_tx == r.pulses &&
                  r.wire.bytes_rx == r.pulses;
  if (!r.completed) {
    std::cout << "socket-ring election failed:\n" << r.stall_dump;
  }
  const net::RunStages st = net::run_stages(flight);
  if (!st.complete()) return out;
  auto ms = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / 1e6;
  };
  out.formation_ms = ms(t0, st.go_ns);
  out.elect_ms = ms(st.go_ns, st.probe_ns);
  out.quiesce_ms = ms(st.probe_ns, st.quiescent_ns);
  out.teardown_ms = ms(st.quiescent_ns, st.complete_ns);
  const double wall_ms = ms(t0, t_end);
  out.sum_error = std::abs(ms(t0, st.complete_ns) - wall_ms) / wall_ms;
  out.stages_ok = out.sum_error <= kStageSumTolerance;
  out.depth = causal_depth(ids);
  out.us_per_hop = out.elect_ms * 1e3 / static_cast<double>(out.depth);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::banner(
      "E18 — real-socket transport: the same elections over actual TCP",
      "the blocking transcriptions are substrate-blind: one-byte pulse "
      "frames over loopback TCP (threads in one process, or one OS process "
      "per node) land the exact Theorem 1 / Corollary 13 pulse counts with "
      "a unique max-ID leader, with quiescence proven from wire counters");

  bench::JsonReport report("E18", "socket transport vs coroutine executor");
  bench::apply_json_flag(report, argc, argv);
  bench::WallTimer total;

  util::Table table({"runtime", "alg", "n", "pulses", "seconds", "nodes/s",
                     "pulses/s", "exact"});
  auto add_table_row = [&table](const Row& row) {
    table.add_row({row.runtime, row.algorithm, std::to_string(row.n),
                   std::to_string(row.pulses),
                   util::Table::fixed(row.seconds, 3),
                   util::Table::fixed(row.nodes_per_sec, 0),
                   util::Table::fixed(row.pulses_per_sec, 0),
                   row.exact ? "yes" : "NO"});
  };
  std::vector<Row> rows;

  // --- Phase 1: multi-process election (must run before any std::thread
  // exists in this process — fork() of a multi-threaded process is UB-
  // adjacent; run_multiprocess documents the same requirement). ----------
  const std::size_t mp_n = smoke ? 6 : 12;
  std::vector<std::uint64_t> mp_ids(mp_n);
  std::iota(mp_ids.begin(), mp_ids.end(), 1);
  const std::uint64_t mp_expected =
      co::theorem1_pulses(mp_n, static_cast<std::uint64_t>(mp_n));
  bench::WallTimer mp_timer;
  const net::MultiProcResult mp =
      net::run_multiprocess(mp_ids, {}, rt::ThreadAlg::alg2);
  const double mp_seconds = mp_timer.seconds();
  Row mp_row = make_row("multiproc", "alg2", mp_n, mp.completed,
                        mp.leader_count, mp.pulses, mp_expected, mp_seconds);
  const bool mp_conserved = mp.consumed == mp.pulses;
  add_table_row(mp_row);
  rows.push_back(mp_row);
  if (!mp.completed) {
    std::cout << "multi-process election failed:\n" << mp.stall_dump << "\n";
  }

  // --- Phase 2: in-process socket sweep vs coro, identical workload. ----
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{8, 32}
            : std::vector<std::size_t>{8, 32, 128};
  bool sweep_exact = true;
  bool wire_conserved = mp_conserved;
  double socket_best_nps = 0.0;
  double coro_best_nps = 0.0;
  for (const std::size_t n : sizes) {
    const auto ids = sweep_ids(n);
    const std::uint64_t expected = 2 * static_cast<std::uint64_t>(n);

    net::SocketRunOptions sopts;
    sopts.timeout_ms = 120'000;
    bench::WallTimer s_timer;
    const net::SocketRunResult s =
        net::run_on_sockets(ids, {}, rt::ThreadAlg::alg1, sopts);
    const Row s_row = make_row("socket", "alg1", n, s.completed,
                               s.leader_count, s.pulses, expected,
                               s_timer.seconds());
    add_table_row(s_row);
    rows.push_back(s_row);
    sweep_exact = sweep_exact && s_row.exact;
    wire_conserved = wire_conserved && s.consumed == s.pulses &&
                     s.wire.bytes_tx == s.pulses &&
                     s.wire.bytes_rx == s.pulses;
    socket_best_nps = std::max(socket_best_nps, s_row.nodes_per_sec);

    coro::CoroRunOptions copts;
    copts.workers = 2;
    copts.timeout_ms = 120'000;
    bench::WallTimer c_timer;
    const coro::CoroRunResult c =
        coro::run_on_coro(ids, {}, rt::ThreadAlg::alg1, copts);
    const Row c_row = make_row("coro", "alg1", n, c.completed,
                               c.leader_count, c.pulses, expected,
                               c_timer.seconds());
    add_table_row(c_row);
    rows.push_back(c_row);
    sweep_exact = sweep_exact && c_row.exact;
    coro_best_nps = std::max(coro_best_nps, c_row.nodes_per_sec);

    // Cross-validation: both substrates landed the identical count.
    sweep_exact = sweep_exact && s.pulses == c.pulses;
  }

  // --- Phase 3: socket Algorithm 2 at the largest sweep size. -----------
  const std::size_t alg2_n = sizes.back();
  std::vector<std::uint64_t> alg2_ids(alg2_n);
  std::iota(alg2_ids.begin(), alg2_ids.end(), 1);
  const std::uint64_t alg2_expected =
      co::theorem1_pulses(alg2_n, static_cast<std::uint64_t>(alg2_n));
  net::SocketRunOptions alg2_opts;
  alg2_opts.timeout_ms = 300'000;
  bench::WallTimer alg2_timer;
  const net::SocketRunResult alg2 =
      net::run_on_sockets(alg2_ids, {}, rt::ThreadAlg::alg2, alg2_opts);
  const Row alg2_row = make_row("socket", "alg2", alg2_n, alg2.completed,
                                alg2.leader_count, alg2.pulses, alg2_expected,
                                alg2_timer.seconds());
  add_table_row(alg2_row);
  rows.push_back(alg2_row);
  wire_conserved = wire_conserved && alg2.consumed == alg2.pulses;
  table.print(std::cout);

  // --- Phase 4: stages and µs per hop on the socket-ring shape. ---------
  const std::size_t stage_runs = smoke ? 3 : 5;
  std::vector<double> formation, elect, quiesce, teardown, depth, hop, cpu;
  double sum_error_max = 0.0;
  bool ring_exact = true;
  bool stages_ok = true;
  net::EndpointCounters ring_wire;
  util::Table stage_table({"ids", "formation ms", "elect ms", "quiesce ms",
                           "teardown ms", "depth", "us/hop", "cpu s",
                           "exact"});
  for (std::size_t k = 0; k < stage_runs; ++k) {
    const auto& ids = kSocketRingIds[k % kSocketRingIds.size()];
    const StageSample s = socket_ring_election(ids);
    ring_exact = ring_exact && s.exact;
    wire_conserved = wire_conserved && s.conserved;
    stages_ok = stages_ok && s.stages_ok;
    ring_wire += s.wire;
    formation.push_back(s.formation_ms);
    elect.push_back(s.elect_ms);
    quiesce.push_back(s.quiesce_ms);
    teardown.push_back(s.teardown_ms);
    depth.push_back(static_cast<double>(s.depth));
    hop.push_back(s.us_per_hop);
    cpu.push_back(s.cpu_s);
    sum_error_max = std::max(sum_error_max, s.sum_error);
    std::string id_text;
    for (const std::uint64_t id : ids) {
      id_text += (id_text.empty() ? "" : ",") + std::to_string(id);
    }
    stage_table.add_row({id_text, util::Table::fixed(s.formation_ms, 2),
                         util::Table::fixed(s.elect_ms, 1),
                         util::Table::fixed(s.quiesce_ms, 2),
                         util::Table::fixed(s.teardown_ms, 2),
                         std::to_string(s.depth),
                         util::Table::fixed(s.us_per_hop, 2),
                         util::Table::fixed(s.cpu_s, 3),
                         s.exact && s.conserved ? "yes" : "NO"});
  }
  std::cout << "\nsocket-ring shape (alg2, n=3, IDmax=" << kSocketRingIdMax
            << "), " << stage_runs << " elections:\n";
  stage_table.print(std::cout);
  auto p50 = [](const std::vector<double>& v) {
    return util::summarize(v).p50;
  };
  const double ring_pulses = static_cast<double>(
      stage_runs * co::theorem1_pulses(3, kSocketRingIdMax));

  // --- Gates. -----------------------------------------------------------
  const bool all_exact =
      mp_row.exact && sweep_exact && alg2_row.exact && ring_exact;

  std::cout << "\nmulti-process: " << mp_n << " OS processes, " << mp.pulses
            << " pulses merged (" << mp.probe_rounds
            << " probe rounds to prove quiescence, "
            << util::Table::fixed(mp_seconds, 3) << "s)\n"
            << "socket peak: " << util::Table::fixed(socket_best_nps, 0)
            << " nodes/s; coro peak: "
            << util::Table::fixed(coro_best_nps, 0) << " nodes/s\n"
            << "socket-ring: " << util::Table::fixed(p50(hop), 2)
            << " us per causal hop (median)\n"
            << "wire conservation (sent == consumed == bytes each way): "
            << (wire_conserved ? "held" : "VIOLATED") << "\n"
            << "stages sum to wall time within "
            << kStageSumTolerance * 100 << "%: "
            << (stages_ok ? "yes" : "NO") << "\n";

  bench::Json ring = bench::Json::object();
  ring.set("algorithm", "alg2")
      .set("n", std::uint64_t{3})
      .set("id_max", kSocketRingIdMax)
      .set("elections", static_cast<std::uint64_t>(stage_runs))
      .set("spin", net::spin_fits(3, util::usable_cpus()))
      .set("formation_ms", p50(formation))
      .set("elect_ms", p50(elect))
      .set("quiesce_ms", p50(quiesce))
      .set("teardown_ms", p50(teardown))
      .set("depth", p50(depth))
      .set("us_per_hop", p50(hop))
      .set("cpu_s", p50(cpu))
      .set("stage_sum_error_max", sum_error_max)
      .set("polls_per_pulse",
           static_cast<double>(ring_wire.polls) / ring_pulses)
      .set("reports_per_election", static_cast<double>(ring_wire.reports) /
                                       static_cast<double>(stage_runs));

  for (const Row& row : rows) report.add_result(json_row(row));
  report.root()
      .set("smoke", smoke)
      .set("multiproc_n", static_cast<std::uint64_t>(mp_n))
      .set("multiproc_pulses", mp.pulses)
      .set("multiproc_expected_pulses", mp_expected)
      .set("multiproc_probe_rounds", mp.probe_rounds)
      .set("socket_nodes_per_sec", socket_best_nps)
      .set("coro_nodes_per_sec", coro_best_nps)
      .set("socket_ring", ring)
      .set("gate_multiproc_ok", mp_row.exact && mp_conserved)
      .set("gate_wire_conserved", wire_conserved)
      .set("gate_stages_ok", stages_ok)
      .set("gate_all_exact", all_exact)
      .set("gate_ok", all_exact && wire_conserved && stages_ok);
  report.finish(total.seconds());

  const bool ok = all_exact && wire_conserved && stages_ok;
  bench::verdict(
      ok, "the socket transport ran every election to the exact paper "
          "pulse count — including " +
              std::to_string(mp_n) +
              " single-node OS processes whose merged Theorem 1 total and "
              "wire counters prove quiescence over real TCP");
  return ok ? 0 : 1;
}
