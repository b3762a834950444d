// End-to-end tests for the property-based fuzzing harness: fixed-seed
// campaigns over every algorithm (clean and faulty), the planted-bug
// demonstration that the find -> shrink -> repro pipeline actually works,
// and the colex-repro-v1 round-trip contract.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "helpers.hpp"
#include "obs/export.hpp"
#include "qa/fuzzer.hpp"
#include "qa/properties.hpp"
#include "qa/repro.hpp"
#include "sim/faults.hpp"
#include "util/contracts.hpp"

namespace colex::qa {
namespace {

CampaignOptions base_options(std::size_t cases) {
  CampaignOptions options;
  options.cases = cases;
  options.generator.max_n = 4;
  options.generator.max_id = 8;
  options.max_failures = 1;
  return options;
}

TEST(FuzzCampaign, CleanCasesSatisfyAllPropertiesPerAlgorithm) {
  for (const Algorithm alg :
       {Algorithm::alg1, Algorithm::alg2, Algorithm::alg3_doubled,
        Algorithm::alg3_improved, Algorithm::alg4}) {
    CampaignOptions options = base_options(40);
    options.generator.algorithms = {alg};
    const CampaignReport report = run_campaign(options);
    EXPECT_EQ(report.cases_run, 40u);
    EXPECT_EQ(report.faulty_cases, 0u);
    EXPECT_TRUE(report.ok())
        << to_string(alg) << " seed "
        << report.counterexamples.front().seed << " failed "
        << report.counterexamples.front().result.failed_property << ": "
        << report.counterexamples.front().result.diagnostic;
  }
}

TEST(FuzzCampaign, RuntimeSubstratesAgreeOnFuzzedCleanCases) {
  // Cross-substrate oracle on fuzzed inputs: every clean case must elect
  // the same leader set with the exact paper-predicted pulse count on all
  // three substrates — the simulator, the coroutine executor, and the
  // real-socket backend (which additionally proves sent == consumed at
  // quiescence over actual TCP connections). n stays clamped small
  // (base_options) so real threads and sockets per case are cheap, and
  // small enough that the socket leg always runs.
  const CampaignOptions options = base_options(1);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const FuzzCase c = generate_case(seed, options.generator);
    ASSERT_TRUE(c.clean());
    const std::string diag = check_runtime_agreement(c);
    EXPECT_TRUE(diag.empty())
        << "seed " << seed << " (" << to_string(c.alg) << ", n=" << c.n()
        << "): " << diag;
  }
}

TEST(FuzzCampaign, FaultyCasesKeepTraceAndReplayProperties) {
  CampaignOptions options = base_options(60);
  options.generator.fault_fraction = 1.0;
  const CampaignReport report = run_campaign(options);
  EXPECT_EQ(report.cases_run, 60u);
  EXPECT_EQ(report.clean_cases, 0u);
  EXPECT_TRUE(report.ok())
      << "seed " << report.counterexamples.front().seed << " failed "
      << report.counterexamples.front().result.failed_property << ": "
      << report.counterexamples.front().result.diagnostic;
}

TEST(FuzzCampaign, SummariesAreSeedStable) {
  const CampaignOptions options = base_options(30);
  const CampaignReport a = run_campaign(options);
  const CampaignReport b = run_campaign(options);
  EXPECT_EQ(a.pulses.mean, b.pulses.mean);
  EXPECT_EQ(a.pulses.p99, b.pulses.p99);
  EXPECT_EQ(a.deliveries.max, b.deliveries.max);
}

TEST(FuzzCampaign, PlantedBugIsFoundAndShrunkToMinimal) {
  // The planted property claims pulses <= bound-1; Algorithm 2 meets the
  // bound exactly (Theorem 1), so EVERY clean alg2 case is a counterexample
  // and the very first seed must fail. The shrinker should then descend to
  // the global minimum: the n=1 ring with ID 1 (3 pulses > 2), no tape, no
  // faults.
  CampaignOptions options = base_options(20);
  options.generator.algorithms = {Algorithm::alg2};
  options.properties.planted_bound_bug = true;
  const CampaignReport report = run_campaign(options);

  ASSERT_EQ(report.counterexamples.size(), 1u);
  const Counterexample& cx = report.counterexamples.front();
  EXPECT_EQ(cx.seed, options.seed_start);
  EXPECT_EQ(cx.result.failed_property, "planted-bound-off-by-one");

  // Locally minimal repro: the fixed event count the issue asks for.
  EXPECT_EQ(cx.minimal.n(), 1u);
  EXPECT_EQ(cx.minimal.ids, std::vector<std::uint64_t>{1});
  EXPECT_TRUE(cx.minimal.clean());
  EXPECT_LE(cx.result.outcome.trace.size(), 6u);
  EXPECT_EQ(cx.result.outcome.counters.sent, 3u);
  EXPECT_GT(cx.shrink_stats.improvements, 0u);

  // The planted property fails, but the run still satisfies the REAL
  // Theorem 1 bound — which is what makes the exported trace pass
  // `colex-inspect check` while the repro still reproduces the bug.
  const obs::TraceMeta meta = trace_meta_for(cx.minimal);
  std::uint64_t sends = 0;
  for (const auto& e : cx.result.outcome.trace) {
    if (e.kind == sim::TraceEvent::Kind::send) ++sends;
  }
  EXPECT_EQ(sends, cx.result.outcome.counters.sent);
  EXPECT_LE(sends, meta.pulse_bound());
  EXPECT_EQ(sends, meta.pulse_bound());  // alg2 is exact
}

TEST(FuzzCampaign, ShrinkCanBeDisabled) {
  CampaignOptions options = base_options(5);
  options.generator.algorithms = {Algorithm::alg2};
  options.properties.planted_bound_bug = true;
  options.shrink = false;
  const CampaignReport report = run_campaign(options);
  ASSERT_EQ(report.counterexamples.size(), 1u);
  const Counterexample& cx = report.counterexamples.front();
  EXPECT_TRUE(cx.minimal == cx.original);
  EXPECT_EQ(cx.shrink_stats.attempts, 0u);
}

TEST(FuzzRepro, RoundTripsThroughJsonl) {
  CampaignOptions options = base_options(30);
  options.generator.fault_fraction = 1.0;
  // Collect a faulty case with real structure so every repro line type is
  // exercised at least across the loop.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const FuzzCase c = generate_case(seed, options.generator);
    ReproFile repro;
    repro.c = c;
    repro.failed_property = "example";
    repro.diagnostic = "diag with \"quotes\" and\nnewline";
    std::stringstream ss(to_repro(repro));
    const ReproFile back = load_repro(ss);
    EXPECT_TRUE(back.c == c) << "seed " << seed << " did not round-trip";
    EXPECT_EQ(back.failed_property, repro.failed_property);
    EXPECT_EQ(back.diagnostic, repro.diagnostic);
    EXPECT_EQ(back.props.planted_bound_bug, repro.props.planted_bound_bug);
    EXPECT_EQ(back.props.check_replay, repro.props.check_replay);
  }
}

TEST(FuzzRepro, TapeRoundTripPinsTheSchedule) {
  // Executing a case yields a tape; a repro carrying that tape must replay
  // to the identical outcome after a serialization round-trip.
  const FuzzCase c = generate_case(7, base_options(1).generator);
  const RunOutcome first = execute_case(c);

  FuzzCase pinned = c;
  pinned.tape = first.tape;
  ReproFile repro;
  repro.c = pinned;
  std::stringstream ss(to_repro(repro));
  const ReproFile back = load_repro(ss);

  const RunOutcome replayed = execute_case(back.c);
  EXPECT_EQ(replayed.tape, first.tape);
  EXPECT_EQ(replayed.counters.sent, first.counters.sent);
  EXPECT_EQ(replayed.roles, first.roles);
  EXPECT_EQ(replayed.report.quiescent, first.report.quiescent);
}

TEST(FuzzRepro, CommittedReproRewritesByteIdentically) {
  std::ifstream in(COLEX_TEST_DATA_DIR "/planted_bound_repro.jsonl");
  ASSERT_TRUE(in.good());
  std::stringstream file;
  file << in.rdbuf();
  std::stringstream ss(file.str());
  EXPECT_EQ(to_repro(load_repro(ss)), file.str());
}

TEST(FuzzRepro, LoadRejectsGarbage) {
  std::stringstream empty("");
  EXPECT_THROW(load_repro(empty), util::ContractViolation);
  std::stringstream bad_format(
      "{\"type\":\"repro\",\"format\":\"colex-repro-v9\",\"seed\":1}\n");
  EXPECT_THROW(load_repro(bad_format), util::ContractViolation);
  std::stringstream no_ids(
      "{\"type\":\"repro\",\"format\":\"colex-repro-v1\",\"seed\":1,"
      "\"algorithm\":\"alg2\",\"ids\":[]}\n");
  EXPECT_THROW(load_repro(no_ids), util::ContractViolation);
}

TEST(FuzzRepro, ExportedTraceLoadsInObs) {
  // colex-fuzz --trace-out writes obs JSONL with trace_meta_for(c); verify
  // the obs loader round-trips it and the meta matches the case.
  const FuzzCase c = generate_case(3, base_options(1).generator);
  const RunOutcome outcome = execute_case(c);
  std::stringstream ss(
      obs::to_jsonl(outcome.trace, trace_meta_for(c)));
  const obs::LoadedTrace loaded = obs::load_jsonl(ss);
  EXPECT_EQ(loaded.meta.n, c.n());
  EXPECT_EQ(loaded.meta.id_max, c.effective_id_max());
  EXPECT_EQ(loaded.meta.algorithm, to_string(c.alg));
  EXPECT_EQ(loaded.events.size(), outcome.trace.size());
}

struct PlanRun {
  std::vector<std::size_t> tape;
  std::vector<sim::TraceEvent> trace;
  sim::PulseNetwork::Counters counters;
};

/// Runs the case's ring under `s` with its fault plan attached, so drops,
/// duplicates, spurious pulses, crashes and recoveries land mid-run.
PlanRun run_with_plan(const FuzzCase& c, sim::Scheduler& s) {
  auto net = build_case_network(c);
  sim::RunOptions opts;
  opts.max_events = c.max_events;
  sim::TraceRecorder trace;
  trace.attach(net, opts);
  sim::PulseFaultInjector injector(
      c.faults, [&c](sim::NodeId v) { return make_automaton(c, v); });
  injector.attach_trace(trace);
  injector.attach(net, opts);
  sim::RecordingScheduler recording(s);
  net.run(recording, opts);
  return {recording.tape(), trace.events(), net.counters()};
}

TEST(FuzzExactness, IndexedSchedulersMatchTheViewPathUnderFaults) {
  // GlobalFifo and Random driven directly take the incremental protocol;
  // wrapped in test::ViewPathScheduler they take the view path. Over fuzzed
  // rings, half of them under fault plans, both must be the same run.
  GeneratorOptions generator = base_options(1).generator;
  generator.fault_fraction = 0.5;
  std::size_t faulty = 0;
  std::size_t picks = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const FuzzCase c = generate_case(seed, generator);
    if (!c.faults.trivial()) ++faulty;
    auto direct = test::indexed_schedulers(seed);
    auto reference = test::indexed_schedulers(seed);
    for (std::size_t k = 0; k < direct.size(); ++k) {
      test::ViewPathScheduler views(*reference[k]);
      const PlanRun a = run_with_plan(c, *direct[k]);
      const PlanRun b = run_with_plan(c, views);
      picks += a.tape.size();
      ASSERT_EQ(a.tape, b.tape) << "seed " << seed << " " << direct[k]->name();
      ASSERT_EQ(a.trace, b.trace) << "seed " << seed << " " << direct[k]->name();
      ASSERT_TRUE(a.counters == b.counters)
          << "seed " << seed << " " << direct[k]->name();
    }
  }
  EXPECT_GT(faulty, 400u);
  EXPECT_GT(picks, 100'000u);
}

TEST(FuzzShrink, PredicateStaysAnchoredToTheFailedProperty) {
  // Directly exercise shrink_case on a synthetic failing case: planted bug
  // on a larger alg2 ring. The minimal case must still fail with the SAME
  // property, never a different one.
  PropertyOptions props;
  props.planted_bound_bug = true;
  FuzzCase c = generate_case(11, base_options(1).generator);
  c.alg = Algorithm::alg2;
  c.ids = {4, 7, 2};
  c.port_flips.clear();
  c.faults = {};
  c.corrupt = {};
  const CaseResult failing = check_case(c, props);
  ASSERT_EQ(failing.failed_property, "planted-bound-off-by-one");

  const ShrinkResult shrunk = shrink_case(c, failing, props, {});
  EXPECT_EQ(shrunk.result.failed_property, "planted-bound-off-by-one");
  EXPECT_LE(shrunk.minimal.n(), c.n());
  EXPECT_LE(shrunk.minimal.id_max(), c.id_max());
  EXPECT_GT(shrunk.stats.attempts, 0u);
}

}  // namespace
}  // namespace colex::qa
