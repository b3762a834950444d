// E8 — Real-asynchrony validation: the pseudocode transcriptions on the
// coroutine executor with two worker threads (cross-worker wakeups and
// steals, genuine OS scheduling nondeterminism) must reproduce the
// discrete-event simulator's outputs and exact pulse counts, run after run.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "co/election.hpp"
#include "coro/run.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

int main() {
  using namespace colex;
  bench::banner(
      "E8  Executor on real threads vs discrete simulator (bench_e8_runtime)",
      "the paper's pseudocode, run on two OS worker threads, must match the "
      "event-driven simulator exactly: same leader, same roles, same "
      "n(2*IDmax+1) pulses");
  bench::WallTimer total;
  bench::JsonReport report("E8", "executor (W=2) vs discrete simulator");

  util::Table table({"n", "alg", "repeats", "sim pulses", "coro pulses",
                     "all exact", "leader match", "wall ms/run"});
  bool all_ok = true;

  struct Config {
    rt::ThreadAlg alg;
    const char* name;
  };
  const Config configs[] = {
      {rt::ThreadAlg::alg1, "alg1"},
      {rt::ThreadAlg::alg2, "alg2"},
      {rt::ThreadAlg::alg3_improved, "alg3-improved"},
  };

  for (const std::size_t n : {2u, 4u, 8u, 16u, 24u}) {
    const auto ids = util::shuffled(util::dense_ids(n), n * 13 + 2);
    sim::RandomScheduler sched(n);
    const auto simulated = co::elect_oriented_terminating(ids, sched);

    for (const auto& config : configs) {
      const int repeats = 5;
      bool exact = true, leader_match = true;
      std::uint64_t coro_pulses = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        const auto run =
            coro::run_on_coro(ids, {}, config.alg, {2, 30'000, nullptr});
        exact = exact && run.completed;
        coro_pulses = run.pulses;
        // All three algorithms elect the same leader; alg1's pulse count is
        // n*IDmax, alg2 and alg3-improved cost n(2*IDmax+1).
        const std::uint64_t expected =
            config.alg == rt::ThreadAlg::alg1
                ? n * static_cast<std::uint64_t>(n)
                : co::theorem1_pulses(n, n);
        exact = exact && run.pulses == expected;
        leader_match = leader_match && run.leader == simulated.leader &&
                       run.leader_count == 1;
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count() /
          repeats;
      all_ok = all_ok && exact && leader_match;
      table.add_row({util::Table::num(static_cast<std::uint64_t>(n)),
                     config.name, util::Table::num(std::uint64_t{repeats}),
                     util::Table::num(simulated.pulses),
                     util::Table::num(coro_pulses), exact ? "yes" : "NO",
                     leader_match ? "yes" : "NO", util::Table::fixed(ms, 2)});
    }
  }
  table.print(std::cout);
  report.root().set("all_ok", all_ok);
  report.finish(total.seconds());

  bench::verdict(all_ok,
                 "two independent execution models (event-driven simulation, "
                 "coroutines on OS worker threads) agree exactly on every "
                 "run");
  return all_ok ? 0 : 1;
}
