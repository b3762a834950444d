// E12 — Exhaustive adversary enumeration: for small rings, EVERY possible
// asynchronous delivery order is explored (model checking, not sampling),
// and on every complete execution the paper's claims hold: unique max-ID
// leader, exact pulse formula, quiescent termination (Alg 2) /
// stabilization (Alg 1/3), consistent orientation (Alg 3).
//
// The bench doubles as the exploration-engine regression gate: every
// configuration runs under both the fork-based snapshot engine
// (sim/explore.hpp) and the replay reference engine (qa/replay_explore.hpp),
// and BENCH_E12.json records wall time and schedules/s for each. With
// --smoke, only the n=3 sweep runs and the exit code enforces snapshot >=
// 2x replay (wired into ci.sh).
//
// The n=4 ring at the end is the configuration the replay engine could not
// finish in reasonable time; it runs on the parallel snapshot explorer
// only (sim/parallel.hpp).
#include <cstring>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "obs/instrument.hpp"
#include "qa/replay_explore.hpp"
#include "sim/explore.hpp"
#include "sim/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

struct Row {
  std::string config;
  std::string engine;
  sim::ExploreStats stats;
  sim::ExploreTelemetry telemetry;
  std::vector<sim::WorkerStats> workers;
  std::uint64_t violations = 0;
  double seconds = 0;

  double schedules_per_second() const {
    return seconds > 0 ? static_cast<double>(stats.leaves) / seconds : 0;
  }
};

Row timed_explore(const std::string& config,
                  const std::function<sim::PulseNetwork()>& build,
                  const std::function<bool(sim::PulseNetwork&)>& leaf_ok,
                  bool replay, std::uint64_t budget) {
  Row row;
  row.config = config;
  row.engine = replay ? "replay" : "snapshot";
  sim::ExploreOptions options;
  options.budget = budget;
  options.telemetry = &row.telemetry;
  const auto on_leaf = [&](sim::PulseNetwork& net) {
    if (!leaf_ok(net)) ++row.violations;
  };
  bench::WallTimer timer;
  row.stats = replay
                  ? qa::replay_explore_all_schedules(build, on_leaf, options)
                  : sim::explore_all_schedules(build, on_leaf, options);
  row.seconds = timer.seconds();
  return row;
}

std::function<sim::PulseNetwork()> alg2_ring(
    const std::vector<std::uint64_t>& ids) {
  return [ids] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
    }
    return net;
  };
}

std::function<bool(sim::PulseNetwork&)> alg2_ok(
    const std::vector<std::uint64_t>& ids) {
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);
  return [ids, id_max](sim::PulseNetwork& net) {
    std::size_t leaders = 0;
    bool ok =
        net.total_sent() == co::theorem1_pulses(ids.size(), id_max);
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      const auto& alg = net.automaton_as<co::Alg2Terminating>(v);
      ok = ok && alg.terminated();
      if (alg.role() == co::Role::leader) {
        ++leaders;
        ok = ok && alg.id() == id_max;
      }
    }
    return ok && leaders == 1;
  };
}

std::function<sim::PulseNetwork()> alg1_ring(
    const std::vector<std::uint64_t>& ids) {
  return [ids] {
    auto net = sim::PulseNetwork::ring(ids.size());
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<co::Alg1Stabilizing>(ids[v]));
    }
    return net;
  };
}

std::function<bool(sim::PulseNetwork&)> alg1_ok(
    const std::vector<std::uint64_t>& ids) {
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);
  return [ids, id_max](sim::PulseNetwork& net) {
    bool ok = net.total_sent() == ids.size() * id_max;
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      const auto& alg = net.automaton_as<co::Alg1Stabilizing>(v);
      ok = ok && (alg.role() == co::Role::leader) == (ids[v] == id_max);
      ok = ok && alg.counters().rho_cw == id_max;
    }
    return ok;
  };
}

std::function<sim::PulseNetwork()> alg3_ring(
    const std::vector<std::uint64_t>& ids, const std::vector<bool>& flips) {
  return [ids, flips] {
    auto net = sim::PulseNetwork::ring(ids.size(), flips);
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      net.set_automaton(v, std::make_unique<co::Alg3NonOriented>(
                               ids[v], co::Alg3NonOriented::Options{}));
    }
    return net;
  };
}

std::function<bool(sim::PulseNetwork&)> alg3_ok(
    const std::vector<std::uint64_t>& ids, const std::vector<bool>& flips) {
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);
  return [ids, flips, id_max](sim::PulseNetwork& net) {
    bool ok =
        net.total_sent() == co::theorem1_pulses(ids.size(), id_max);
    std::size_t leaders = 0, physically_cw = 0;
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      const auto& alg = net.automaton_as<co::Alg3NonOriented>(v);
      if (alg.role() == co::Role::leader) {
        ++leaders;
        ok = ok && alg.initial_id() == id_max;
      }
      if (alg.cw_port() == co::physical_cw_port(flips, v)) {
        ++physically_cw;
      }
    }
    return ok && leaders == 1 &&
           (physically_cw == 0 || physically_cw == ids.size());
  };
}

using bench::Json;

Json row_json(const Row& row) {
  auto j = bench::Json::object();
  j.set("config", row.config)
      .set("engine", row.engine)
      .set("leaves", row.stats.leaves)
      .set("max_depth", row.stats.max_depth)
      .set("exhaustive", row.stats.exhaustive())
      .set("violations", row.violations)
      .set("seconds", row.seconds)
      .set("schedules_per_second", row.schedules_per_second())
      // Engine-cost telemetry: clones quantify the snapshot engine's fork
      // cost; each replay-engine visit re-runs its whole prefix.
      .set("visits", row.telemetry.visits)
      .set("clones", row.telemetry.clones);
  return j;
}

/// The previously infeasible configuration: an n=4 oriented ring under
/// Algorithm 1, enumerated exhaustively on the parallel snapshot explorer.
Row explore_n4_parallel(const std::vector<std::uint64_t>& ids,
                        std::size_t workers) {
  Row row;
  row.config = "alg1 n=" + std::to_string(ids.size()) + " (parallel x" +
               std::to_string(workers) + ")";
  row.engine = "snapshot";
  const auto ok = alg1_ok(ids);
  sim::ParallelExploreOptions options;
  options.budget = 600'000'000;
  options.workers = workers;
  options.min_subtrees = 256;
  options.telemetry = &row.telemetry;
  options.worker_stats = &row.workers;
  std::uint64_t violations = 0;
  bench::WallTimer timer;
  row.stats = sim::parallel_explore_all_schedules<std::uint64_t>(
      alg1_ring(ids),
      [&ok](std::uint64_t& acc, sim::PulseNetwork& net) {
        if (!ok(net)) ++acc;
      },
      [](std::uint64_t& into, const std::uint64_t& from) { into += from; },
      violations, options);
  row.seconds = timer.seconds();
  row.violations = violations;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::banner(
      "E12  Exhaustive schedule enumeration (bench_e12_exhaustive)",
      "the theorems hold on EVERY asynchronous delivery order, not just "
      "sampled ones — verified by enumerating the adversary's full choice "
      "tree for small rings");

  bench::WallTimer total;
  bench::JsonReport report(
      "E12",
      "exhaustive adversary enumeration; snapshot vs replay engine timings");
  bench::apply_json_flag(report, argc, argv);
  // Cross-config registry: per-engine counters accumulate over the sweep,
  // and the parallel run contributes per-worker utilization.
  obs::Registry metrics;

  struct Config {
    std::string name;
    std::function<sim::PulseNetwork()> build;
    std::function<bool(sim::PulseNetwork&)> ok;
    std::uint64_t budget;
  };
  std::vector<Config> configs;
  if (!smoke) {
    configs.push_back({"alg2 n=1", alg2_ring({3}), alg2_ok({3}), 100'000});
    configs.push_back(
        {"alg2 n=2", alg2_ring({1, 2}), alg2_ok({1, 2}), 8'000'000});
    configs.push_back(
        {"alg2 n=2 sparse", alg2_ring({4, 2}), alg2_ok({4, 2}), 8'000'000});
  }
  configs.push_back({"alg2 n=3", alg2_ring({2, 3, 1}), alg2_ok({2, 3, 1}),
                     8'000'000});
  if (!smoke) {
    configs.push_back({"alg1 n=3", alg1_ring({2, 3, 1}), alg1_ok({2, 3, 1}),
                       8'000'000});
    configs.push_back({"alg1 n=3 sparse", alg1_ring({4, 2, 3}),
                       alg1_ok({4, 2, 3}), 8'000'000});
    configs.push_back({"alg3 n=2 scrambled", alg3_ring({2, 3}, {true, false}),
                       alg3_ok({2, 3}, {true, false}), 8'000'000});
    configs.push_back({"alg3 n=2", alg3_ring({3, 1}, {false, false}),
                       alg3_ok({3, 1}, {false, false}), 8'000'000});
    configs.push_back({"alg1 n=4", alg1_ring({2, 4, 1, 3}),
                       alg1_ok({2, 4, 1, 3}), 60'000'000});
  }

  util::Table table({"configuration", "engine", "distinct schedules",
                     "max depth", "exhaustive", "violations", "seconds",
                     "sched/s"});
  bool all_ok = true;
  double speedup_n3 = 0;
  for (const auto& cfg : configs) {
    Row rows[2];
    for (std::size_t e = 0; e < 2; ++e) {
      rows[e] = timed_explore(cfg.name, cfg.build, cfg.ok, e == 1, cfg.budget);
      all_ok = all_ok && rows[e].stats.exhaustive() &&
               rows[e].violations == 0;
      table.add_row({rows[e].config, rows[e].engine,
                     util::Table::num(rows[e].stats.leaves),
                     util::Table::num(rows[e].stats.max_depth),
                     rows[e].stats.exhaustive() ? "yes" : "NO",
                     util::Table::num(rows[e].violations),
                     std::to_string(rows[e].seconds),
                     std::to_string(rows[e].schedules_per_second())});
      report.add_result(row_json(rows[e]));
      obs::publish_explore(metrics, "explore." + rows[e].engine,
                           rows[e].stats, rows[e].telemetry);
    }
    // Both engines must see the identical tree.
    all_ok = all_ok && rows[0].stats == rows[1].stats;
    if (cfg.name == "alg2 n=3" && rows[0].seconds > 0) {
      speedup_n3 = rows[1].seconds / rows[0].seconds;
    }
  }

  if (!smoke) {
    // Previously infeasible under replay: n=4 at IDmax=6 — ~700k distinct
    // schedules, depth 24 — exhaustively enumerated on the parallel
    // snapshot explorer.
    const auto row = explore_n4_parallel({2, 6, 1, 5},
                                         sim::default_workers());
    all_ok = all_ok && row.stats.exhaustive() && row.violations == 0;
    table.add_row({row.config, row.engine,
                   util::Table::num(row.stats.leaves),
                   util::Table::num(row.stats.max_depth),
                   row.stats.exhaustive() ? "yes" : "NO",
                   util::Table::num(row.violations),
                   std::to_string(row.seconds),
                   std::to_string(row.schedules_per_second())});
    report.add_result(row_json(row));
    obs::publish_explore(metrics, "explore.parallel", row.stats,
                         row.telemetry);
    obs::publish_worker_stats(metrics, "explore.workers", row.workers);
  }

  table.print(std::cout);
  std::cout << "\nsnapshot speedup over replay on alg2 n=3: " << speedup_n3
            << "x\n";
  report.root().set("speedup_n3_snapshot_over_replay", speedup_n3);
  report.embed_metrics(metrics.to_json());
  report.finish(total.seconds());

  if (smoke && speedup_n3 < 2.0) {
    bench::verdict(false,
                   "snapshot engine must be at least 2x faster than replay "
                   "on the n=3 exhaustive sweep");
    return 1;
  }
  bench::verdict(all_ok,
                 "every enumerated schedule elects the max-ID node with the "
                 "exact pulse formula, on both exploration engines");
  return all_ok ? 0 : 1;
}
