// Oracles for the property-based fuzzing harness: a registry of named
// properties checked against one executed FuzzCase.
//
// The clean-case property set is the paper's full contract — per-event
// invariants (co/invariants.hpp), quiescence, quiescent termination
// (Algorithm 2), a valid election outcome, the *exact* pulse-count claims
// (Corollary 13, Theorems 1-2, Proposition 15), trace conservation, and
// schedule-replay determinism. Faulty cases intentionally check only the
// last two: a fault plan is licensed to break the theorems (that boundary
// is what the fault harness explores), but a faithfully recorded faulty run
// must still audit clean and replay bit-identically.
//
// check_case returns the FIRST failing property by name; the shrinker's
// predicate is "the same property still fails", which keeps minimization
// anchored to one defect instead of sliding between unrelated ones.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "co/roles.hpp"
#include "qa/generators.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace colex::qa {

/// Everything observable about one execution of a FuzzCase.
struct RunOutcome {
  sim::RunReport report;
  sim::PulseNetwork::Counters counters;
  std::vector<co::Role> roles;
  std::optional<sim::NodeId> leader;
  std::size_t leader_count = 0;
  /// Declared CW ports (non-oriented algorithms only; empty otherwise).
  std::vector<sim::Port> cw_ports;
  /// First per-event invariant diagnostic (clean runs only; empty = held).
  std::string invariant_diag;
  /// Trace-audit diagnostic (empty = conservation held).
  std::string audit_diag;
  /// The channel choices actually executed — pins the schedule for replay
  /// and shrinking even when the case was driven by a generated scheduler.
  std::vector<std::size_t> tape;
  std::vector<sim::TraceEvent> trace;
};

struct PropertyOptions {
  /// Enables the planted off-by-one bound property (pulses <= bound - 1):
  /// deliberately false for Algorithm 2, whose pulse count is *exactly* the
  /// bound, so the fuzzer provably finds it. The exported trace still
  /// satisfies the real bound, so the repro round-trips through
  /// `colex-inspect check` cleanly.
  bool planted_bound_bug = false;
  /// Re-executes the recorded tape on a fresh network and requires the
  /// identical outcome (counters, roles, quiescence).
  bool check_replay = true;
};

struct CaseResult {
  std::string failed_property;  ///< empty = all properties held
  std::string diagnostic;
  RunOutcome outcome;

  bool passed() const { return failed_property.empty(); }
};

/// Builds the case's ring with fresh automatons (also the recovery factory
/// for crash/recover fault plans).
sim::PulseNetwork build_case_network(const FuzzCase& c);
std::unique_ptr<sim::PulseAutomaton> make_automaton(const FuzzCase& c,
                                                    sim::NodeId v);

/// The exact pulse count the paper predicts for a clean quiescent run of
/// this case: Corollary 13's n*IDmax for Algorithm 1, the pulse_bound()
/// formula (which the other algorithms meet with equality) otherwise.
std::uint64_t exact_pulses(const FuzzCase& c);

/// Executes the case once (tape replay if c.tape is non-empty, else the
/// generated scheduler) with tracing and, for clean cases, per-event
/// invariant checks attached.
RunOutcome execute_case(const FuzzCase& c);

/// Runs the applicable property set and reports the first failure.
CaseResult check_case(const FuzzCase& c, const PropertyOptions& opts = {});

/// Cross-engine oracle: explores the case's configuration with both the
/// snapshot engine (sim/explore.hpp) and the replay engine
/// (qa/replay_explore.hpp) under the same budget and requires identical
/// stats and identical per-leaf outcomes. Clean cases only. Empty = agree.
std::string check_engine_agreement(const FuzzCase& c, std::uint64_t budget);

/// Cross-substrate oracle: runs the same ids/orientation on the coroutine
/// executor (two workers) and — for rings of at most eight nodes — the
/// real-socket backend, and requires every substrate to
/// agree with the simulator on the leader set and the exact paper-predicted
/// pulse count (the socket leg additionally proves sent == consumed at
/// quiescence). Clean cases only. Empty = agree.
std::string check_runtime_agreement(const FuzzCase& c,
                                    std::uint64_t timeout_ms = 30'000);

}  // namespace colex::qa
