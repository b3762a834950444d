// Scripted faults on the coroutine executor (coro/faults.hpp), driven by
// the simulator's FaultPlan at one worker, where every scenario replays:
// each settling one runs twice and must land the same outcomes, ExecStats
// and fault records. The watchdog scenarios lean on one impossibility: an
// Algorithm 1 node absorbs exactly one pulse ever (at rho_cw == ID), so a
// surplus CW pulse circulates forever once all n absorptions are spent.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "coro/faults.hpp"
#include "util/contracts.hpp"

namespace colex::coro {
namespace {

const std::vector<std::uint64_t> kIds{6, 11, 3, 9};  // max 11 at node 1
constexpr std::size_t kN = 4;
// sim::Network::ring numbering: channel 2i is edge i's CW direction, so
// channel 6 carries node 3's CW pulses into node 0's p0.
constexpr std::size_t kIntoNode0 = 6;
// Events in a fault-free Algorithm 1 run: n starts + n * IDmax deliveries.
constexpr std::uint64_t kSettled = kN + kN * 11;

/// A scripted fault at `event` on a channel (spurious) or a node.
sim::ScriptedFault at(std::uint64_t event, sim::FaultKind kind,
                      std::size_t target) {
  const bool channel = kind == sim::FaultKind::spurious;
  return {kind, event, channel ? target : 0,
          static_cast<sim::NodeId>(channel ? 0 : target)};
}

sim::FaultPlan plan_of(std::vector<sim::ScriptedFault> script) {
  sim::FaultPlan plan;
  plan.script = std::move(script);
  return plan;
}

FaultRunResult run(const sim::FaultPlan& plan,
                   std::uint64_t timeout_ms = 30'000,
                   rt::ThreadAlg alg = rt::ThreadAlg::alg1) {
  return run_on_coro_with_faults(kIds, {}, alg, plan, {1, timeout_ms, nullptr});
}

/// The fault ledger, one record per word.
std::string records_of(const FaultRunResult& r) {
  std::ostringstream os;
  for (const sim::FaultRecord& f : r.records) {
    os << sim::to_string(f.kind) << '@' << f.at_event << ":n" << f.node
       << ":c" << f.channel << ' ';
  }
  return os.str();
}

/// Everything a replay must reproduce: ending, counters, per-node outcomes
/// and the fault ledger.
std::string fingerprint(const FaultRunResult& r) {
  std::ostringstream os;
  const ExecStats& s = r.stats;
  os << r.completed << ' ' << sim::to_string(r.outcome) << " pulses "
     << r.pulses << " lost " << r.lost << " stats " << s.sent << ' '
     << s.consumed << ' ' << s.swallowed << ' ' << s.resumes << ' '
     << s.parks << ' ' << s.wakeups << ' ' << s.batched << ' ' << s.deferred
     << ' ' << s.yields << " nodes";
  for (const rt::BlockingOutcome& o : r.outcomes) {
    os << ' ' << static_cast<int>(o.role) << '/' << o.counters.rho_cw << '/'
       << o.counters.sigma_cw << '/' << o.stopped << '/' << o.restarts;
  }
  return os.str() + " | " + records_of(r);
}

/// Every send is booked exactly once; a settled run conserves pulses.
void expect_books_balance(const FaultRunResult& r) {
  const ExecStats& s = r.stats;
  EXPECT_EQ(s.sent, s.wakeups + s.batched + s.deferred + s.swallowed);
  if (r.completed) {
    EXPECT_EQ(s.sent, s.consumed + s.swallowed);
  }
}

/// Runs `plan` twice; both runs must settle, and settle identically.
FaultRunResult replayed(const sim::FaultPlan& plan,
                        rt::ThreadAlg alg = rt::ThreadAlg::alg1) {
  const FaultRunResult a = run(plan, 30'000, alg);
  const FaultRunResult b = run(plan, 30'000, alg);
  EXPECT_TRUE(a.completed) << a.stall_dump;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  expect_books_balance(a);
  return a;
}

// The fault layer adds no executor operation of its own to a clean run:
// an empty plan lands the plain one-worker run, schedule included.
TEST(CoroFaults, TrivialPlanMatchesAPlainRun) {
  const FaultRunResult r = replayed(sim::FaultPlan{});
  const CoroRunResult plain = run_on_coro(kIds, {}, rt::ThreadAlg::alg1);
  EXPECT_EQ(r.pulses, kN * 11u);  // Corollary 13
  EXPECT_EQ(r.leader, sim::NodeId{1});
  EXPECT_EQ(r.outcome, sim::FaultOutcome::recovered_correct) << r.diagnosis;
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.lost, 0u);
  EXPECT_TRUE(r.stall_dump.empty());
  EXPECT_EQ(r.stats.resumes, plain.stats.resumes);
  EXPECT_EQ(r.stats.wakeups, plain.stats.wakeups);
  EXPECT_EQ(r.stats.deferred, plain.stats.deferred);
}

// Only what replays from the plan is accepted; everything else is refused
// up front, naming why.
TEST(CoroFaults, RejectsWhatDoesNotReplay) {
  using K = sim::FaultKind;
  sim::FaultPlan noisy;
  noisy.all_channels.spurious_prob = 0.01;
  sim::FaultPlan lossy_edge;
  lossy_edge.channel_overrides.push_back({0, sim::ChannelFaultProfile{0.5}});
  const sim::FaultPlan crash = plan_of({at(6, K::crash, 2)});
  const struct {
    sim::FaultPlan plan;
    std::size_t workers;
    const char* reason;  // "" = accepted
  } cases[] = {
      {crash, 2, "W=2"},
      {plan_of({at(6, K::drop, 0)}), 1, "drop"},
      {plan_of({at(6, K::duplicate, 0)}), 1, "duplicate"},
      {noisy, 1, "probabilities"},
      {lossy_edge, 1, "probabilities"},
      {plan_of({at(6, K::corrupt, 0)}), 1, "corrupt"},  // validate()
      {plan_of({at(9, K::crash, 2), at(6, K::crash, 1)}), 1, "not sorted"},
      {plan_of({at(6, K::spurious, 2 * kN)}), 1, "precondition"},
      {crash, 1, ""},
  };
  for (const auto& c : cases) {
    std::string what;
    try {
      run_on_coro_with_faults(kIds, {}, rt::ThreadAlg::alg1, c.plan,
                              {c.workers, 30'000, nullptr});
    } catch (const util::ContractViolation& e) {
      what = e.what();
    }
    if (*c.reason == '\0') {
      EXPECT_EQ(what, "");
    } else {
      EXPECT_NE(what.find(c.reason), std::string::npos) << c.reason << ": "
                                                        << what;
    }
  }
}

// Crash-stop with no recovery: the crashed node unwinds and then swallows
// the four pulses that reach it, so the run settles by quiescence (sent ==
// consumed), and the node reports a default outcome — its state died.
TEST(CoroFaults, CrashStopCompletesByQuiescence) {
  const FaultRunResult r =
      replayed(plan_of({at(kN + 2, sim::FaultKind::crash, 2)}));
  EXPECT_EQ(r.tallies.crashes, 1u);
  EXPECT_EQ(r.tallies.recoveries, 0u);
  EXPECT_TRUE(r.stall_dump.empty());
  EXPECT_EQ(r.stats.swallowed, 4u);
  const rt::BlockingOutcome& down = r.outcomes[2];
  EXPECT_TRUE(down.stopped);
  EXPECT_EQ(down.role, co::Role::undecided);
  EXPECT_EQ(down.counters.rho_cw, 0u);
  EXPECT_EQ(down.restarts, 0u);
  // Node 2 sits on the CW path into node 3, 0 and then the would-be leader,
  // which never sees its 11th pulse.
  EXPECT_EQ(r.outcome, sim::FaultOutcome::stalled) << r.diagnosis;
}

// Crash and recover a node once the election has settled: its fresh pulse
// circulates (every settled node has rho > ID and relays) until the
// recovered node itself absorbs it at rho == ID. The ring re-quiesces with
// node 2 wrongly Leader and the rightful leader demoted — the executor
// twin of the simulator's crash-recovery finding in test_faults.cpp.
TEST(CoroFaults, RecoveryAfterSettlingElectsTheRecoveredNode) {
  const FaultRunResult r =
      replayed(plan_of({at(kSettled, sim::FaultKind::crash, 2),
                        at(kSettled, sim::FaultKind::recover, 2)}));
  EXPECT_EQ(r.outcomes[2].restarts, 1u);
  EXPECT_EQ(r.outcomes[2].counters.rho_cw, kIds[2]);
  EXPECT_EQ(r.outcomes[2].role, co::Role::leader);
  EXPECT_EQ(r.outcomes[1].role, co::Role::non_leader);
  // Three laps of node 2's pulse around four nodes.
  EXPECT_EQ(r.pulses, kN * 11u + 3 * kN);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.outcome, sim::FaultOutcome::stalled) << r.diagnosis;
}

// A second node crashes while the first is mid-recovery (its fresh
// incarnation has not run yet). The ledger records both cycles; with the
// faults at these events the two fresh pulses make up for the ones the
// crashes cost, and the ring re-converges on the rightful leader. Node 0
// recovers while node 3 holds unsettled sends to it: they are booked (as
// swallowed) before its channels are emptied, or the run never quiesces.
TEST(CoroFaults, CrashDuringAnotherNodesRecovery) {
  const FaultRunResult r =
      replayed(plan_of({at(kN + 7, sim::FaultKind::crash, 2),
                        at(kN + 7, sim::FaultKind::recover, 2),
                        at(kN + 7, sim::FaultKind::crash, 0),
                        at(kN + 17, sim::FaultKind::recover, 0)}));
  EXPECT_EQ(r.tallies.crashes, 2u);
  EXPECT_EQ(r.tallies.recoveries, 2u);
  EXPECT_EQ(r.outcomes[2].restarts, 1u);
  EXPECT_EQ(r.outcomes[0].restarts, 1u);
  EXPECT_EQ(r.pulses, kN * 11u + 2);
  EXPECT_EQ(r.outcome, sim::FaultOutcome::recovered_correct) << r.diagnosis;
}

// On Algorithm 2 the same node crashes and recovers twice back to back;
// each recovery starts a fresh incarnation, and no dead one leaks a send.
// Both times the node has unwound and counts as done when it recovers, so
// the recovery must count it live again, or the run ends when the other
// three terminate, with a pulse still in flight.
TEST(CoroFaults, BackToBackCrashRecoverSameNode) {
  const FaultRunResult r =
      replayed(plan_of({at(kN, sim::FaultKind::crash, 2),
                        at(kN + 2, sim::FaultKind::recover, 2),
                        at(kN + 3, sim::FaultKind::crash, 2),
                        at(kN + 4, sim::FaultKind::recover, 2)}),
               rt::ThreadAlg::alg2);
  EXPECT_EQ(r.tallies.crashes, 2u);
  EXPECT_EQ(r.tallies.recoveries, 2u);
  EXPECT_EQ(r.outcomes[2].restarts, 2u);
  EXPECT_EQ(r.lost, 1u);
  EXPECT_EQ(r.outcome, sim::FaultOutcome::recovered_correct) << r.diagnosis;
}

// Crash and recover at one event, for every node: one of them is the node
// whose delivery was that event, so its dead incarnation is still running
// when it recovers and hands the node over at its next wait — on Algorithm
// 2 also when that delivery would have terminated it (node 2, event 95).
TEST(CoroFaults, CrashAndRecoverAtOneEventForEveryNode) {
  for (std::size_t v = 0; v < kN; ++v) {
    SCOPED_TRACE(v);
    const FaultRunResult r =
        replayed(plan_of({at(kN + 36, sim::FaultKind::crash, v),
                          at(kN + 36, sim::FaultKind::recover, v)}));
    EXPECT_EQ(r.tallies.crashes, 1u);
    EXPECT_EQ(r.outcomes[v].restarts, 1u);
    EXPECT_GE(r.outcomes[v].counters.sigma_cw, 1u);  // the fresh one ran
  }
  const FaultRunResult r =
      replayed(plan_of({at(95, sim::FaultKind::crash, 2),
                        at(95, sim::FaultKind::recover, 2)}),
               rt::ThreadAlg::alg2);
  EXPECT_GE(r.outcomes[2].counters.sigma_cw, 1u);
}

// n + 1 spurious pulses on one channel: at least one surplus pulse can
// never be absorbed, so the run diverges and the watchdog ends it with a
// post-mortem. Both runs classify diverged with the same fault records,
// numbered like the simulator's channels.
TEST(CoroFaults, SpuriousStormOnOneChannelDiverges) {
  std::vector<sim::ScriptedFault> storm;
  for (std::size_t i = 0; i <= kN; ++i) {
    storm.push_back(at(kN + 2, sim::FaultKind::spurious, kIntoNode0));
  }
  const sim::FaultPlan plan = plan_of(storm);
  const FaultRunResult a = run(plan, /*timeout_ms=*/300);
  const FaultRunResult b = run(plan, /*timeout_ms=*/300);
  for (const FaultRunResult* r : {&a, &b}) {
    EXPECT_EQ(r->outcome, sim::FaultOutcome::diverged) << r->diagnosis;
    EXPECT_FALSE(r->completed);
    EXPECT_NE(r->stall_dump.find("spurious=5"), std::string::npos);
    expect_books_balance(*r);
  }
  EXPECT_EQ(records_of(a), records_of(b));
  ASSERT_EQ(a.records.size(), kN + 1);
  EXPECT_EQ(a.records[0].node, sim::NodeId{3});
  EXPECT_EQ(a.records[0].port, sim::Port::p1);
  EXPECT_EQ(a.records[0].dir, sim::Direction::cw);
}

// A spurious pulse on the ring before any node starts: the livelock is
// certain, the watchdog trips, and the post-mortem carries the executor
// state, the progress history, the metrics snapshot and the fault ledger.
// The surplus shows up as exactly one unconsumed pulse.
TEST(CoroFaults, PreRunSpuriousPulseTripsWatchdogWithDump) {
  sim::FaultPlan plan;
  plan.preseed_channels.push_back({kIntoNode0, 1});
  obs::Registry metrics;
  const FaultRunResult r = run_on_coro_with_faults(
      kIds, {}, rt::ThreadAlg::alg1, plan, {1, 300, &metrics});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.outcome, sim::FaultOutcome::diverged);
  for (const char* part : {"coro-executor state", "progress history",
                           "metrics: {", "faults: events=", "spurious=1"}) {
    EXPECT_NE(r.stall_dump.find(part), std::string::npos) << part;
  }
  EXPECT_EQ(records_of(r), "spurious@0:n3:c6 ");
  EXPECT_EQ(r.stats.sent, r.stats.consumed + r.stats.swallowed + 1);
  expect_books_balance(r);
}

}  // namespace
}  // namespace colex::coro
