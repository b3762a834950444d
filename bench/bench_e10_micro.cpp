// E10 — Simulator micro-benchmarks (google-benchmark): raw event
// throughput of the discrete-event substrate for the content-oblivious
// algorithms, the token bus, and the content-carrying baselines.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "co/election.hpp"
#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"
#include "util/stats.hpp"

namespace {

using namespace colex;

/// Reports `units` per iteration and their rate, e.g. pulses and pulses/s.
void count_units(benchmark::State& state, const std::string& unit,
                 std::uint64_t units) {
  state.counters[unit] = static_cast<double>(units);
  state.counters[unit + "/s"] = benchmark::Counter(
      static_cast<double>(units) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_Alg2Election(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t pulses = 0;
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = co::elect_oriented_terminating(ids, sched);
    pulses = result.pulses;
    benchmark::DoNotOptimize(result.leader);
  }
  count_units(state, "pulses", pulses);
}
BENCHMARK(BM_Alg2Election)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Alg1Stabilization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t pulses = 0;
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = co::elect_oriented_stabilizing(ids, sched);
    pulses = result.pulses;
    benchmark::DoNotOptimize(result.pulses);
  }
  count_units(state, "pulses", pulses);
}
BENCHMARK(BM_Alg1Stabilization)->Arg(16)->Arg(64)->Arg(256);

void BM_Alg3NonOriented(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  const auto flips = util::random_flips(n, 3);
  std::uint64_t pulses = 0;
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    co::Alg3NonOriented::Options options;
    const auto result = co::elect_and_orient(ids, flips, options, sched);
    pulses = result.pulses;
    benchmark::DoNotOptimize(result.pulses);
  }
  count_units(state, "pulses", pulses);
}
BENCHMARK(BM_Alg3NonOriented)->Arg(16)->Arg(64)->Arg(256);

void BM_RandomSchedulerElection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t pulses = 0;
  for (auto _ : state) {
    sim::RandomScheduler sched(11);
    const auto result = co::elect_oriented_terminating(ids, sched);
    pulses = result.pulses;
    benchmark::DoNotOptimize(result.pulses);
  }
  count_units(state, "pulses", pulses);
}
BENCHMARK(BM_RandomSchedulerElection)->Arg(64)->Arg(256)->Arg(1024);

void BM_ComposedGatherAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t pulses = 0;
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = colib::run_composed(
        ids,
        [](sim::NodeId v) {
          return std::make_unique<colib::GatherAllApp>(v + 1);
        },
        sched);
    pulses = result.total_pulses;
    benchmark::DoNotOptimize(result.total_pulses);
  }
  count_units(state, "pulses", pulses);
}
BENCHMARK(BM_ComposedGatherAll)->Arg(8)->Arg(16)->Arg(32);

void BM_BaselineHirschbergSinclair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = baselines::hirschberg_sinclair(ids, sched);
    messages = result.messages;
    benchmark::DoNotOptimize(result.messages);
  }
  count_units(state, "messages", messages);
}
BENCHMARK(BM_BaselineHirschbergSinclair)->Arg(64)->Arg(256)->Arg(1024);

void BM_BaselineChangRoberts(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = util::shuffled(util::dense_ids(n), 7);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    sim::GlobalFifoScheduler sched;
    const auto result = baselines::chang_roberts(ids, sched);
    messages = result.messages;
    benchmark::DoNotOptimize(result.messages);
  }
  count_units(state, "messages", messages);
}
BENCHMARK(BM_BaselineChangRoberts)->Arg(64)->Arg(256)->Arg(1024);

/// GlobalFifo's incremental index alone, through the public protocol: each
/// of `channels` channels holds one head, and the heads run in send order
/// over a shuffled channel order. A step is one pick_indexed and one
/// head_changed: the delivered channel's next head is the pulse sent one
/// round later, so the index sees the steady state of a fault-free run.
void BM_GlobalFifoIndex(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> busy(channels);
  for (std::size_t c = 0; c < channels; ++c) busy[c] = c;
  const std::vector<std::uint64_t> order = util::shuffled(
      util::dense_ids(channels), 7);  // order[k] - 1: channel of seq k
  sim::GlobalFifoScheduler fifo;
  fifo.begin_index(channels);
  std::uint64_t seq = 0;
  auto report = [&](std::size_t c, std::uint64_t head) {
    fifo.head_changed(sim::ChannelView{c, 1, head, 0, sim::Direction::cw});
  };
  for (; seq < channels; ++seq) report(order[seq] - 1, seq);
  for (auto _ : state) {
    const std::size_t c = fifo.pick_indexed(busy);
    report(c, seq++);
    benchmark::DoNotOptimize(c);
  }
  count_units(state, "steps", 1);
}
BENCHMARK(BM_GlobalFifoIndex)->Arg(2048);

/// One channel's queue: push `burst` pulses, then take them all off again,
/// through the network's fault hooks (which skip the automata). A burst of
/// 2 is a CW channel's load; 650 is about the largest CCW backlog that
/// Algorithm 2 relays in one react at n=1024.
void BM_ChannelQueue(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  auto net = sim::PulseNetwork::ring(1);
  for (auto _ : state) {
    for (std::size_t k = 0; k < burst; ++k) net.inject_fault(0);
    for (std::size_t k = 0; k < burst; ++k) net.drop_fault(0);
    benchmark::DoNotOptimize(net.dropped());
  }
  count_units(state, "pulses", burst);
}
BENCHMARK(BM_ChannelQueue)->Arg(2)->Arg(650);

/// One measured benchmark: its name, ring size, iterations and counters.
struct Row {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t iterations = 0;
  std::map<std::string, double> counters;
};

/// The library's own display (so --benchmark_format still applies), plus a
/// Row per benchmark run.
class RowReporter final : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void Finalize() override { display_->Finalize(); }
  void ReportRuns(const std::vector<Run>& runs) override {
    display_->ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = run.benchmark_name();
      row.n = run.run_name.args.empty() ? 0 : std::stoull(run.run_name.args);
      row.iterations = static_cast<std::uint64_t>(run.iterations);
      for (const auto& [counter, value] : run.counters) {
        row.counters[counter] = value.value;
      }
      rows.push_back(std::move(row));
    }
  }

  std::vector<Row> rows;

 private:
  // Owned by the library, which hands out one instance per process.
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
};

/// Counts (pulses, messages) are integers; rates stay floating point.
colex::bench::Json counter_json(double value) {
  if (value >= 0.0 && value < 1e15 && value == std::floor(value)) {
    return colex::bench::Json::of(static_cast<std::uint64_t>(value));
  }
  return colex::bench::Json::of(value);
}

/// The median pulses/s over the repetitions of `name` (0 if it did not
/// run): one lucky repetition cannot pass the gate.
double median_pulse_rate(const std::vector<Row>& rows,
                         const std::string& name) {
  std::vector<double> rates;
  for (const Row& row : rows) {
    if (row.name == name) rates.push_back(row.counters.at("pulses/s"));
  }
  return util::summarize(std::move(rates)).p50;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): every run (each repetition under
// --benchmark_repetitions) also lands as a row of BENCH_E10.json, and when
// both BM_Alg2Election/16 and /1024 ran, the scaling gate compares their
// median pulse rates (ci.sh greps its verdict).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  colex::bench::WallTimer total;
  RowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  colex::bench::JsonReport report(
      "E10", "simulator micro-benchmarks: one row per google-benchmark run");
  for (const Row& row : reporter.rows) {
    colex::bench::Json json = colex::bench::Json::object();
    json.set("name", row.name).set("n", row.n).set("iterations",
                                                   row.iterations);
    for (const auto& [counter, value] : row.counters) {
      json.set_json(counter, counter_json(value));
    }
    report.add_result(std::move(json));
  }
  // Host speed cancels out of the ratio: a simulator step that grows with
  // the number of busy channels shows up as a falling rate at larger n.
  const double small = median_pulse_rate(reporter.rows, "BM_Alg2Election/16");
  const double large =
      median_pulse_rate(reporter.rows, "BM_Alg2Election/1024");
  if (small > 0.0 && large > 0.0) {
    const double scaling = large / small;
    constexpr double kMinScaling = 0.5;
    report.root()
        .set("alg2_rate_1024_over_16", scaling)
        .set("gate_scaling_min", kMinScaling)
        .set("gate_scaling_ok", scaling >= kMinScaling);
    std::cout << "\nAlg 2 pulses/s at n=1024 over n=16: " << scaling
              << " (gate >= " << kMinScaling << ")\n";
  }
  report.finish(total.seconds());
  return 0;
}
