#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "obs/export.hpp"
#include "obs/instrument.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "util/contracts.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"

namespace colex::obs {
namespace {

using sim::TraceEvent;
using Kind = TraceEvent::Kind;

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (auto at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(JsonlRoundTrip, EveryEventKindSurvives) {
  std::vector<TraceEvent> events;
  const Kind kinds[] = {Kind::send,          Kind::deliver,
                        Kind::fault_drop,    Kind::fault_duplicate,
                        Kind::fault_spurious, Kind::fault_crash,
                        Kind::fault_recover, Kind::fault_corrupt};
  std::uint64_t index = 0;
  for (const Kind kind : kinds) {
    events.push_back(TraceEvent{kind, index % 3, sim::Port::p1,
                                sim::Direction::ccw, index});
    ++index;
  }
  TraceMeta meta;
  meta.algorithm = "alg2";
  meta.n = 3;
  meta.id_max = 5;
  meta.port_flips = {true, false, true};

  const LoadedTrace loaded = [&] {
    std::istringstream in(to_jsonl(events, meta));
    return load_jsonl(in);
  }();
  EXPECT_EQ(loaded.events, events);
  EXPECT_EQ(loaded.meta.algorithm, "alg2");
  EXPECT_EQ(loaded.meta.n, 3u);
  EXPECT_EQ(loaded.meta.id_max, 5u);
  EXPECT_EQ(loaded.meta.port_flips, meta.port_flips);
  EXPECT_EQ(loaded.meta.pulse_bound(), 3u * (2u * 5u + 1u));
  EXPECT_TRUE(loaded.metrics_json.empty());
}

TEST(JsonlRoundTrip, MetricsLineSurvives) {
  Registry metrics;
  metrics.counter("net.sends").inc(7);
  TraceMeta meta;
  meta.n = 2;
  std::istringstream in(to_jsonl({}, meta, &metrics));
  const LoadedTrace loaded = load_jsonl(in);
  EXPECT_EQ(loaded.metrics_json, metrics.to_json());
}

TEST(JsonlRoundTrip, ControlCharactersInTheAlgorithmSurvive) {
  TraceMeta meta;
  meta.algorithm = "a\nb\tc";
  meta.n = 1;
  const std::string text = to_jsonl({}, meta);
  EXPECT_EQ(count_occurrences(text, "\n"), 1u);  // still one meta line
  std::istringstream in(text);
  EXPECT_EQ(load_jsonl(in).meta.algorithm, "a\nb\tc");
}

TEST(JsonlLoad, RequiresMetaLine) {
  std::istringstream in(
      "{\"type\":\"event\",\"index\":0,\"kind\":\"send\",\"node\":0,"
      "\"port\":0,\"dir\":\"cw\"}\n");
  EXPECT_THROW(load_jsonl(in), util::ContractViolation);
}

TEST(JsonlLoad, RejectsWrongFormatTag) {
  std::istringstream in(
      "{\"type\":\"meta\",\"format\":\"not-colex\",\"n\":2}\n");
  EXPECT_THROW(load_jsonl(in), util::ContractViolation);
}

TEST(JsonlLoad, SkipsUnknownLineTypes) {
  std::istringstream in(
      "{\"type\":\"meta\",\"format\":\"colex-trace-v1\",\"n\":1,"
      "\"id_max\":0,\"port_flips\":[]}\n"
      "{\"type\":\"future-extension\",\"whatever\":true}\n");
  const LoadedTrace loaded = load_jsonl(in);
  EXPECT_EQ(loaded.meta.n, 1u);
  EXPECT_TRUE(loaded.events.empty());
}

TEST(JsonlLoad, NestedKeysDoNotShadowTopLevelOnes) {
  std::istringstream in(
      "{\"type\":\"meta\",\"format\":\"colex-trace-v1\","
      "\"extra\":{\"n\":9},\"n\":3}\n");
  EXPECT_EQ(load_jsonl(in).meta.n, 3u);
}

TEST(JsonlLoad, RejectsMalformedLines) {
  for (const char* line :
       {"{\"type\":\"meta\",\"format\":\"colex-trace-v1\",\"n\":3",
        "{\"type\":\"meta\",\"format\":\"colex-trace-v1\",\"n\":-3}",
        "{\"type\":\"meta\",\"format\":\"colex-trace-v1\"} trailing"}) {
    std::istringstream in(std::string(line) + "\n");
    EXPECT_THROW(load_jsonl(in), util::ContractViolation) << line;
  }
}

// Chrome-trace shape on a hand-built 2-ring stream covering every kind.
// Oriented wiring: node0 sends cw out of p1 into node1's p0, and vice versa.
TEST(ChromeTrace, EveryKindRendersOnTheRightTrack) {
  TraceMeta meta;
  meta.algorithm = "unit";
  meta.n = 2;
  std::vector<TraceEvent> events{
      {Kind::send, 0, sim::Port::p1, sim::Direction::cw, 0},
      {Kind::fault_duplicate, 0, sim::Port::p1, sim::Direction::cw, 1},
      {Kind::deliver, 1, sim::Port::p0, sim::Direction::cw, 2},
      {Kind::deliver, 1, sim::Port::p0, sim::Direction::cw, 3},
      {Kind::fault_spurious, 1, sim::Port::p1, sim::Direction::ccw, 4},
      {Kind::fault_drop, 1, sim::Port::p1, sim::Direction::ccw, 5},
      {Kind::fault_crash, 0, sim::Port::p0, sim::Direction::cw, 6},
      {Kind::fault_recover, 0, sim::Port::p0, sim::Direction::cw, 7},
      {Kind::fault_corrupt, 1, sim::Port::p0, sim::Direction::cw, 8},
  };
  const std::string json = to_chrome_trace(events, meta);

  // One process, one named track per node.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"process_name\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"thread_name\""), 2u);
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);

  // The send at ts=0 and its duplicate at ts=1 both complete as spans on
  // the SENDER's track (tid 0), with ts/dur from the stream indices.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_NE(json.find("\"name\":\"pulse\",\"ph\":\"X\",\"ts\":0,\"dur\":2,"
                      "\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pulse (duplicated)\",\"ph\":\"X\",\"ts\":1,"
                      "\"dur\":2,\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"to_node\":1"), std::string::npos);

  // Faults are instants pinned to their stream position and faulted node.
  EXPECT_NE(json.find("\"name\":\"fault-duplicate\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":1,\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault-spurious\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":4,\"pid\":0,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault-drop\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":5,\"pid\":0,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault-crash\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":6,\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault-recover\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":7,\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault-corrupt\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":8,\"pid\":0,\"tid\":1"),
            std::string::npos);
  // The drop removed the spurious pulse, so nothing is left in flight.
  EXPECT_EQ(json.find("in flight at end"), std::string::npos);
}

TEST(ChromeTrace, UnmatchedDeliveryAndLeftoverSendAreVisible) {
  TraceMeta meta;
  meta.n = 2;
  std::vector<TraceEvent> events{
      {Kind::deliver, 1, sim::Port::p0, sim::Direction::cw, 0},
      {Kind::send, 1, sim::Port::p1, sim::Direction::cw, 1},
  };
  const std::string json = to_chrome_trace(events, meta);
  EXPECT_NE(json.find("deliver (unmatched)"), std::string::npos);
  EXPECT_NE(json.find("in flight at end"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 0u);
}

TEST(ChromeTrace, UnknownShapeFallsBackToInstants) {
  TraceMeta meta;  // n = 0: no wiring, no span matching
  std::vector<TraceEvent> events{
      {Kind::send, 5, sim::Port::p1, sim::Direction::cw, 0},
      {Kind::deliver, 6, sim::Port::p0, sim::Direction::cw, 1},
  };
  const std::string json = to_chrome_trace(events, meta);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 0u);
  EXPECT_NE(json.find("\"name\":\"send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"deliver\""), std::string::npos);
  // Tracks were derived from the highest node mentioned.
  EXPECT_NE(json.find("\"name\":\"node 6\""), std::string::npos);
}

TEST(ChromeTrace, AlgorithmNameIsEscaped) {
  TraceMeta meta;
  meta.algorithm = "al\"g";
  meta.n = 1;
  const std::string json = to_chrome_trace({}, meta);
  EXPECT_NO_THROW(util::json::Object{json});
  EXPECT_NE(json.find("\"name\":\"colex ring (al\\\"g)\""),
            std::string::npos);
}

// End-to-end acceptance path: an instrumented Algorithm 2 run on n=4 is
// exported, loaded back, and the Theorem 1 pulse bound is checked
// programmatically against the recorded stream.
TEST(ObservedRun, Alg2TraceRespectsTheorem1Bound) {
  constexpr std::size_t n = 4;
  const auto ids = util::shuffled(util::dense_ids(n), 3);
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);

  auto net = sim::PulseNetwork::ring(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }
  sim::RunOptions opts;
  sim::TraceRecorder trace;
  trace.attach(net, opts);
  Registry metrics;
  PulseNetworkInstrumentation instr(metrics);
  instr.attach(net, opts);
  sim::RandomScheduler scheduler(17);
  const auto report = net.run(scheduler, opts);
  instr.finish(net);
  ASSERT_TRUE(report.quiescent && report.all_terminated);

  TraceMeta meta;
  meta.algorithm = "alg2";
  meta.n = n;
  meta.id_max = id_max;

  std::istringstream in(to_jsonl(trace.events(), meta, &metrics));
  const LoadedTrace loaded = load_jsonl(in);
  EXPECT_EQ(loaded.events, trace.events());

  // Theorem 1: pulses <= n(2*IDmax+1), counted from the loaded stream.
  std::uint64_t sends = 0;
  for (const auto& e : loaded.events) {
    if (e.kind == Kind::send) ++sends;
  }
  ASSERT_NE(loaded.meta.pulse_bound(), 0u);
  EXPECT_LE(sends, loaded.meta.pulse_bound());
  EXPECT_EQ(sends, co::theorem1_pulses(n, id_max));  // Theorem 1 is exact
  EXPECT_EQ(sends, report.sent);

  // The instrumentation agrees with the network's ground truth...
  EXPECT_EQ(metrics.counter("net.sends").value(), report.sent);
  EXPECT_EQ(metrics.counter("net.deliveries").value(), report.sent);
  // ...and the embedded snapshot round-tripped bit-exactly.
  EXPECT_EQ(loaded.metrics_json, metrics.to_json());

  // The Chrome export of the same run completes every pulse as a span.
  const std::string chrome = to_chrome_trace(loaded.events, loaded.meta);
  EXPECT_EQ(count_occurrences(chrome, "\"ph\":\"X\""), sends);
  EXPECT_EQ(count_occurrences(chrome, "\"name\":\"thread_name\""), n);
  EXPECT_EQ(chrome.find("deliver (unmatched)"), std::string::npos);
}

// Phase attribution for Algorithm 3 on the simulator: on a scrambled ring
// the nodes whose ports turn out mounted against the elected orientation
// report orientation_flip, and the per-phase series still add up to every
// pulse the nodes sent.
TEST(ObservedRun, Alg3PhasePulsesSumToSendsOnAScrambledRing) {
  const std::vector<std::uint64_t> ids = {4, 1, 5, 2, 3};
  const std::vector<bool> flips = {true, false, false, true, true};
  auto net = sim::PulseNetwork::ring(ids.size(), flips);
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<co::Alg3NonOriented>(
                             ids[v], co::Alg3NonOriented::Options{}));
  }
  sim::RunOptions opts;
  Registry metrics;
  PulseNetworkInstrumentation instr(metrics);
  instr.attach(net, opts);
  sim::GlobalFifoScheduler scheduler;
  const auto report = net.run(scheduler, opts);
  instr.finish(net);
  ASSERT_TRUE(report.quiescent);

  std::uint64_t phase_sum = 0;
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    phase_sum +=
        metrics.counter(labeled("pulses", "phase", sim::phase_name(i))).value();
  }
  EXPECT_EQ(phase_sum, metrics.counter("net.sends").value());
  EXPECT_EQ(phase_sum, report.sent);
  EXPECT_EQ(report.sent, co::theorem1_pulses(ids.size(), 5));
  EXPECT_GT(
      metrics.counter(labeled("pulses", "phase", "orientation_flip")).value(),
      0u);
  EXPECT_EQ(metrics.counter(labeled("pulses", "phase", "adversary")).value(),
            0u);
}

}  // namespace
}  // namespace colex::obs
