#include "svc/supervisor.hpp"

#include <memory>
#include <string>
#include <utility>

#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/roles.hpp"
#include "coro/run.hpp"
#include "net/run.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/contracts.hpp"

namespace colex::svc {

const char* to_string(SoakBackend backend) {
  switch (backend) {
    case SoakBackend::coro: return "coro";
    case SoakBackend::socket: return "socket";
    default: return "sim";
  }
}

bool backend_from_string(const std::string& s, SoakBackend& out) {
  if (s == "sim") {
    out = SoakBackend::sim;
    return true;
  }
  if (s == "coro") {
    out = SoakBackend::coro;
    return true;
  }
  if (s == "socket") {
    out = SoakBackend::socket;
    return true;
  }
  return false;
}

namespace {

std::unique_ptr<sim::PulseAutomaton> fresh_node(SoakAlg alg,
                                                std::uint64_t id) {
  if (alg == SoakAlg::alg1) return std::make_unique<co::Alg1Stabilizing>(id);
  return std::make_unique<co::Alg2Terminating>(id);
}

co::Role role_of(const sim::PulseNetwork& net, SoakAlg alg, sim::NodeId v) {
  return alg == SoakAlg::alg1
             ? net.automaton_as<co::Alg1Stabilizing>(v).role()
             : net.automaton_as<co::Alg2Terminating>(v).role();
}

/// Classifies a clean attempt that ran on the coroutine executor or on
/// loopback sockets (`substrate` names it in the diagnoses). Outcomes there
/// are schedule-independent — the conserved pulse counters give the exact
/// Theorem 1 / Corollary 13 count and a unique max-ID leader — so the only
/// non-deterministic ending is a wall-clock watchdog timeout, which
/// classifies as `stalled` without the clean-attempt escalation (a loaded
/// machine is not an algorithm bug; the retry ladder absorbs it).
AttemptResult classify_clean_run(const RingSpec& spec,
                                 const rt::TransportRunResult& r,
                                 std::uint64_t deliveries,
                                 const std::string& substrate) {
  AttemptResult a;
  for (const rt::BlockingOutcome& out : r.outcomes) {
    for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
      a.phase_pulses[i] += out.phase_sends[i];
    }
  }
  a.pulses = r.pulses;
  a.pulse_bound = spec.pulse_bound();
  a.within_bound = a.pulses <= a.pulse_bound;
  a.unique_leader = r.leader_count == 1;
  a.leader_is_max =
      r.leader.has_value() && spec.ids[*r.leader] == spec.id_max();
  a.report.sent = r.pulses;
  a.report.deliveries = deliveries;
  a.report.quiescent = r.completed;

  if (!r.completed) {
    a.outcome = sim::FaultOutcome::stalled;
    a.diagnosis = substrate + " attempt hit the stall watchdog: " + r.stall_dump;
    return a;
  }
  bool decided = a.unique_leader && a.leader_is_max;
  for (const rt::BlockingOutcome& out : r.outcomes) {
    if (out.role == co::Role::undecided) decided = false;
    if (spec.alg == SoakAlg::alg2 && !out.terminated && !out.stopped) {
      decided = false;
    }
  }
  a.report.all_terminated = decided && spec.alg == SoakAlg::alg2;
  if (!decided) {
    a.outcome = sim::FaultOutcome::safety_violated;
    a.diagnosis = "clean " + substrate +
                  " attempt settled without a valid election: " +
                  std::to_string(r.leader_count) + " leaders";
  } else if (!a.within_bound) {
    a.outcome = sim::FaultOutcome::safety_violated;
    a.diagnosis = "clean " + substrate +
                  " run exceeded the Theorem 1 pulse bound: " +
                  std::to_string(a.pulses) + " > " +
                  std::to_string(a.pulse_bound);
  } else {
    a.outcome = sim::FaultOutcome::recovered_correct;
  }
  return a;
}

/// Runs a clean attempt on the coroutine executor or on a loopback socket
/// ring (one thread per node plus the quiescence coordinator).
AttemptResult run_clean_attempt(const RingSpec& spec, SoakBackend backend) {
  const rt::ThreadAlg alg =
      spec.alg == SoakAlg::alg1 ? rt::ThreadAlg::alg1 : rt::ThreadAlg::alg2;
  if (backend == SoakBackend::coro) {
    // One worker per election: a soak shard is already one thread of a
    // fixed pool, so fanning each tiny ring across more workers would only
    // oversubscribe the machine.
    coro::CoroRunOptions copts;
    copts.workers = 1;
    copts.timeout_ms = 10'000;
    const coro::CoroRunResult r = coro::run_on_coro(spec.ids, {}, alg, copts);
    // SPSC fabric: every pulse is consumed once.
    AttemptResult a = classify_clean_run(spec, r, r.pulses, "coro");
    a.on_coro = true;
    return a;
  }
  net::SocketRunOptions sopts;
  sopts.timeout_ms = 10'000;
  const net::SocketRunResult r = net::run_on_sockets(spec.ids, {}, alg, sopts);
  // Wire conservation: sent == consumed.
  AttemptResult a = classify_clean_run(spec, r, r.consumed, "socket");
  a.on_socket = true;
  return a;
}

}  // namespace

AttemptResult run_attempt(const RingSpec& spec, SoakBackend backend) {
  COLEX_EXPECTS(!spec.ids.empty());
  COLEX_EXPECTS(spec.max_events > 0);
  if (backend != SoakBackend::sim && spec.faults.trivial()) {
    return run_clean_attempt(spec, backend);
  }
  const std::size_t n = spec.ids.size();
  const std::uint64_t id_max = spec.id_max();

  sim::PulseNetwork net = sim::PulseNetwork::ring(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    net.set_automaton(v, fresh_node(spec.alg, spec.ids[v]));
  }
  sim::FaultyNetwork faulty(
      std::move(net), spec.faults,
      [alg = spec.alg, &spec](sim::NodeId v) {
        return fresh_node(alg, spec.ids[v]);
      });

  // Phase-attribute every node send (the sender's current phase, resolved
  // through the network so crash/recover automaton swaps stay safe). Plain
  // stack tallies, not a registry: attempts are the soak hot loop, and the
  // shard folds the result into its own registry post-attempt.
  std::array<std::uint64_t, sim::kPhaseCount> phase_pulses{};
  std::uint64_t observed_sends = 0;
  sim::PulseNetwork* const net_ptr = &faulty.network();
  net_ptr->chain_send_observer(
      [net_ptr, &phase_pulses, &observed_sends](sim::NodeId v, sim::Port,
                                                sim::Direction) {
        ++phase_pulses[sim::index(net_ptr->automaton(v).phase())];
        ++observed_sends;
      });

  // The intended output: exactly one Leader, it holds the max ID, everyone
  // else decided Non-Leader — and for the terminating algorithm, everyone
  // terminated. Per-event invariant predicates are deliberately NOT wired
  // in: under faults the algorithms legitimately traverse states the
  // fault-free invariants forbid (a spurious pulse pushes counters past
  // IDmax), so only the final output is judged; clean-attempt escalation
  // below restores full strictness where the model actually promises it.
  const auto correct = [&spec, n, id_max](const sim::PulseNetwork& final_net) {
    std::size_t leaders = 0;
    bool max_is_leader = false;
    for (sim::NodeId v = 0; v < n; ++v) {
      const co::Role role = role_of(final_net, spec.alg, v);
      if (role == co::Role::undecided) return false;
      if (role == co::Role::leader) {
        ++leaders;
        max_is_leader = max_is_leader || spec.ids[v] == id_max;
      }
      if (spec.alg == SoakAlg::alg2 &&
          !final_net.automaton(v).terminated()) {
        return false;
      }
    }
    return leaders == 1 && max_is_leader;
  };

  sim::RunOptions opts;
  opts.max_events = spec.max_events;
  sim::RandomScheduler scheduler(spec.schedule_seed);
  const bool clean = spec.faults.trivial();
  auto run = faulty.run(scheduler, opts, /*safety=*/{}, correct);

  AttemptResult a;
  a.outcome = run.outcome;
  a.diagnosis = std::move(run.diagnosis);
  a.tallies = run.tallies;
  a.report = run.report;
  a.pulses = run.report.sent;
  a.pulse_bound = spec.pulse_bound();
  a.within_bound = a.pulses <= a.pulse_bound;
  a.phase_pulses = phase_pulses;
  if (a.pulses > observed_sends) {
    // Fabric pulses no node sent (injections, duplicates): the adversary
    // bucket keeps the per-phase series summing to the ground-truth total.
    a.phase_pulses[sim::index(sim::Phase::adversary)] +=
        a.pulses - observed_sends;
  }

  std::size_t leaders = 0;
  for (sim::NodeId v = 0; v < n; ++v) {
    if (role_of(faulty.network(), spec.alg, v) == co::Role::leader) {
      ++leaders;
      a.leader_is_max = a.leader_is_max || spec.ids[v] == id_max;
    }
  }
  a.unique_leader = leaders == 1;

  if (a.outcome == sim::FaultOutcome::recovered_correct && !a.within_bound) {
    // The hard invariant: no election completes past the Theorem 1 bound.
    // Under faults an excess is the adversary's doing (one duplicate breaks
    // Algorithm 2's exact n(2·IDmax+1) budget) — demote and retry. On a
    // clean run the bound is the theorem's promise, so an excess is a bug.
    if (clean) {
      a.outcome = sim::FaultOutcome::safety_violated;
      a.diagnosis = "clean run exceeded the Theorem 1 pulse bound: " +
                    std::to_string(a.pulses) + " > " +
                    std::to_string(a.pulse_bound);
    } else {
      a.outcome = sim::FaultOutcome::stalled;
      a.diagnosis = "correct output but pulse bound exceeded under faults (" +
                    std::to_string(a.pulses) + " > " +
                    std::to_string(a.pulse_bound) + "); retrying";
    }
  } else if (clean && a.outcome == sim::FaultOutcome::stalled) {
    // A clean election settling without the intended output cannot be
    // blamed on any adversary: escalate to fatal.
    a.outcome = sim::FaultOutcome::safety_violated;
    a.diagnosis = "clean attempt settled without a valid election: " +
                  a.diagnosis;
  }
  return a;
}

ElectionReport run_supervised(const ChurnEngine& churn, std::uint64_t election,
                              const SupervisorPolicy& policy) {
  COLEX_EXPECTS(policy.max_attempts >= 1);
  COLEX_EXPECTS(policy.clean_after_attempts < policy.max_attempts);
  ElectionReport out;
  for (unsigned attempt = 0; attempt < policy.max_attempts; ++attempt) {
    const RingSpec spec =
        churn.spec(election, attempt, policy.clean_after_attempts);
    const AttemptResult a = run_attempt(spec, policy.backend);
    out.attempts = attempt + 1;
    out.coro_attempts += a.on_coro ? 1 : 0;
    out.socket_attempts += a.on_socket ? 1 : 0;
    out.final_outcome = a.outcome;
    out.diagnosis = a.diagnosis;
    out.pulses = a.pulses;
    out.pulse_bound = a.pulse_bound;
    out.phase_pulses = a.phase_pulses;
    out.faults_applied += a.tallies.total();
    out.events_consumed += a.report.deliveries;
    if (a.outcome == sim::FaultOutcome::recovered_correct) {
      out.completed = true;
      return out;
    }
    if (a.outcome == sim::FaultOutcome::safety_violated) return out;
    // stalled or diverged: abandon this ring, rebuild, re-elect.
  }
  out.abandoned = true;
  return out;
}

}  // namespace colex::svc
