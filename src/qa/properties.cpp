#include "qa/properties.hpp"

#include <algorithm>
#include <utility>

#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "co/invariants.hpp"
#include "co/oriented.hpp"
#include "coro/run.hpp"
#include "net/run.hpp"
#include "qa/replay_explore.hpp"
#include "runtime/blocking_algs.hpp"
#include "sim/explore.hpp"
#include "sim/faults.hpp"
#include "util/contracts.hpp"

namespace colex::qa {

namespace {

co::IdScheme scheme_of(Algorithm alg) {
  return alg == Algorithm::alg3_doubled ? co::IdScheme::doubled
                                        : co::IdScheme::improved;
}

bool oriented(Algorithm alg) {
  return alg == Algorithm::alg1 || alg == Algorithm::alg2;
}

co::Role role_of(const FuzzCase& c, const sim::PulseNetwork& net,
                 sim::NodeId v) {
  switch (c.alg) {
    case Algorithm::alg1:
      return net.automaton_as<co::Alg1Stabilizing>(v).role();
    case Algorithm::alg2:
      return net.automaton_as<co::Alg2Terminating>(v).role();
    default:
      return net.automaton_as<co::Alg3NonOriented>(v).role();
  }
}

/// First per-event invariant violation across started, live nodes.
std::string invariants_now(const FuzzCase& c, const sim::PulseNetwork& net) {
  const std::uint64_t id_max = c.id_max();
  for (sim::NodeId v = 0; v < net.size(); ++v) {
    if (!net.started(v) || net.node_crashed(v)) continue;
    std::string err;
    switch (c.alg) {
      case Algorithm::alg1:
        err = co::check_alg1_invariants(
            net.automaton_as<co::Alg1Stabilizing>(v), id_max);
        break;
      case Algorithm::alg2:
        err = co::check_alg2_invariants(
            net.automaton_as<co::Alg2Terminating>(v), id_max);
        break;
      default:
        err = co::check_alg3_invariants(
            net.automaton_as<co::Alg3NonOriented>(v), scheme_of(c.alg));
        break;
    }
    if (!err.empty()) return "node " + std::to_string(v) + ": " + err;
  }
  return {};
}

sim::PulseFaultInjector::StateCorruptor make_corruptor(const FuzzCase& c) {
  if (!c.corrupt.active) return {};
  return [c](sim::PulseNetwork& net) {
    const CorruptSpec& spec = c.corrupt;
    COLEX_EXPECTS(spec.node < net.size());
    if (oriented(c.alg)) {
      const co::PulseCounters k{spec.counters[0], spec.counters[1],
                                spec.counters[2], spec.counters[3]};
      if (c.alg == Algorithm::alg1) {
        net.automaton_as<co::Alg1Stabilizing>(spec.node).load_corrupted_state(
            k, co::Role::undecided);
      } else {
        net.automaton_as<co::Alg2Terminating>(spec.node).load_corrupted_state(
            k, co::Role::undecided);
      }
    } else {
      const std::uint64_t rho[2] = {spec.counters[0], spec.counters[2]};
      const std::uint64_t sigma[2] = {spec.counters[1], spec.counters[3]};
      net.automaton_as<co::Alg3NonOriented>(spec.node).load_corrupted_state(
          rho, sigma);
    }
  };
}

/// Digest of one terminal state, for cross-engine leaf comparison.
std::uint64_t leaf_digest(const FuzzCase& c, const sim::PulseNetwork& net) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ULL;
  };
  mix(net.counters().sent);
  for (sim::NodeId v = 0; v < net.size(); ++v) {
    mix(static_cast<std::uint64_t>(role_of(c, net, v)));
  }
  return h;
}

}  // namespace

std::unique_ptr<sim::PulseAutomaton> make_automaton(const FuzzCase& c,
                                                    sim::NodeId v) {
  COLEX_EXPECTS(v < c.n());
  switch (c.alg) {
    case Algorithm::alg1:
      return std::make_unique<co::Alg1Stabilizing>(c.ids[v]);
    case Algorithm::alg2:
      return std::make_unique<co::Alg2Terminating>(c.ids[v]);
    default:
      return std::make_unique<co::Alg3NonOriented>(
          c.ids[v], co::Alg3NonOriented::Options{scheme_of(c.alg), {}});
  }
}

sim::PulseNetwork build_case_network(const FuzzCase& c) {
  COLEX_EXPECTS(c.n() >= 1);
  auto net = sim::PulseNetwork::ring(c.n(), c.port_flips);
  for (sim::NodeId v = 0; v < c.n(); ++v) {
    net.set_automaton(v, make_automaton(c, v));
  }
  return net;
}

std::uint64_t exact_pulses(const FuzzCase& c) {
  // Corollary 13: Algorithm 1 quiesces with every node having sent exactly
  // IDmax pulses; the terminating and non-oriented algorithms meet their
  // n(2*IDmax+1)-shaped bounds with equality (Theorems 1-2, Prop. 15).
  return c.alg == Algorithm::alg1 ? c.n() * c.id_max() : c.pulse_bound();
}

RunOutcome execute_case(const FuzzCase& c) {
  auto net = build_case_network(c);
  sim::RunOptions opts;
  opts.max_events = c.max_events;

  RunOutcome out;
  const bool clean = c.clean();
  if (clean) {
    // Per-event oracle. Installed before any injector would attach, so a
    // (hypothetical) fault plan tampers only after the check observed the
    // algorithm-produced state.
    opts.on_event = [&out, &c](sim::PulseNetwork& n) {
      if (out.invariant_diag.empty()) out.invariant_diag = invariants_now(c, n);
    };
  }

  sim::TraceRecorder trace;
  trace.attach(net, opts);

  std::optional<sim::PulseFaultInjector> injector;
  if (!clean) {
    injector.emplace(
        c.faults,
        [&c](sim::NodeId v) { return make_automaton(c, v); },
        make_corruptor(c));
    injector->attach_trace(trace);
    injector->attach(net, opts);
  }

  std::unique_ptr<sim::Scheduler> driver;
  if (c.tape.empty()) {
    driver = make_case_scheduler(c);
  } else {
    driver = std::make_unique<sim::ReplayScheduler>(c.tape);
  }
  sim::RecordingScheduler recording(*driver);
  out.report = net.run(recording, opts);

  out.counters = net.counters();
  out.tape = recording.tape();
  out.trace = trace.events();
  out.audit_diag = trace.audit(sim::ring_wiring(c.n(), c.port_flips));
  out.roles.reserve(c.n());
  for (sim::NodeId v = 0; v < c.n(); ++v) {
    const co::Role r = role_of(c, net, v);
    out.roles.push_back(r);
    if (r == co::Role::leader) {
      ++out.leader_count;
      if (!out.leader) out.leader = v;
    }
    if (!oriented(c.alg)) {
      out.cw_ports.push_back(
          net.automaton_as<co::Alg3NonOriented>(v).cw_port());
    }
  }
  return out;
}

CaseResult check_case(const FuzzCase& c, const PropertyOptions& opts) {
  CaseResult r;
  r.outcome = execute_case(c);
  auto fail = [&r](const char* prop, std::string diag) {
    if (r.failed_property.empty()) {
      r.failed_property = prop;
      r.diagnostic = std::move(diag);
    }
  };

  const bool clean = c.clean();
  const bool settled = r.outcome.report.quiescent;
  if (clean) {
    if (!r.outcome.invariant_diag.empty()) {
      fail("invariants", r.outcome.invariant_diag);
    }
    if (!settled) {
      fail("quiescence",
           r.outcome.report.hit_event_limit
               ? "event limit hit with pulses still in transit"
               : "stalled with unconsumed queued pulses");
    }
    if (c.alg == Algorithm::alg2 && settled &&
        !r.outcome.report.all_terminated) {
      fail("termination", "quiescent but not all nodes terminated");
    }
    if (settled) {
      // Election outcome. Lemma 16 semantics for Algorithm 1 (every holder
      // of the maximal ID is Leader); single-leader for the others, gated
      // on the unique-max applicability condition (Lemma 18 for the
      // Algorithm 4 pipeline, guaranteed-unique IDs otherwise).
      const std::uint64_t id_max = c.id_max();
      const std::size_t max_holders = static_cast<std::size_t>(
          std::count(c.ids.begin(), c.ids.end(), id_max));
      if (c.alg == Algorithm::alg1 || max_holders == 1) {
        std::string diag;
        for (sim::NodeId v = 0; v < c.n(); ++v) {
          const co::Role expected =
              c.ids[v] == id_max ? co::Role::leader : co::Role::non_leader;
          if (r.outcome.roles[v] != expected) {
            diag = "node " + std::to_string(v) + " (id " +
                   std::to_string(c.ids[v]) + ") is " +
                   co::to_string(r.outcome.roles[v]) + ", expected " +
                   co::to_string(expected);
            break;
          }
        }
        if (!diag.empty()) fail("valid-election", diag);
      }
      if (!oriented(c.alg) && max_holders == 1) {
        // Proposition 15: all declared CW ports point the same way around
        // the physical cycle. Which way is the algorithm's to choose, so
        // only consistency is checked. A node's port toward node v+1 is
        // Port1 unless its labels are flipped; declaring that port as CW
        // means the node's notion of clockwise follows the builder's.
        std::string diag;
        bool first_follows = false;
        for (sim::NodeId v = 0; v < c.n(); ++v) {
          const bool flipped = !c.port_flips.empty() && c.port_flips[v];
          const sim::Port toward_next = flipped ? sim::Port::p0 : sim::Port::p1;
          const bool follows = r.outcome.cw_ports[v] == toward_next;
          if (v == 0) {
            first_follows = follows;
          } else if (follows != first_follows) {
            diag = "node " + std::to_string(v) +
                   " orients against node 0's declared direction";
            break;
          }
        }
        if (!diag.empty()) fail("orientation", diag);
      }
      // Exact pulse-count claims. Algorithm 1's n*IDmax holds for arbitrary
      // multisets (Lemma 16); the n(2*IDmax+1) family needs the unique-max
      // applicability condition — Algorithm 4's clamped sampling can mint
      // duplicate maxima, and a duplicated max genuinely overshoots (two
      // competing flows both climb to IDmax before colliding).
      if (c.alg == Algorithm::alg1 || max_holders == 1) {
        const std::uint64_t expected = exact_pulses(c);
        if (r.outcome.counters.sent != expected) {
          fail("pulse-bound",
               "pulses=" + std::to_string(r.outcome.counters.sent) +
                   " expected exactly " + std::to_string(expected) +
                   " (bound " + std::to_string(c.pulse_bound()) + ")");
        }
      }
    }
  }

  if (!r.outcome.audit_diag.empty()) {
    fail("trace-audit", r.outcome.audit_diag);
  }

  if (opts.planted_bound_bug && clean && settled && c.pulse_bound() > 0 &&
      r.outcome.counters.sent > c.pulse_bound() - 1) {
    fail("planted-bound-off-by-one",
         "pulses=" + std::to_string(r.outcome.counters.sent) +
             " exceeds bound-1=" + std::to_string(c.pulse_bound() - 1));
  }

  if (opts.check_replay) {
    FuzzCase pinned = c;
    pinned.tape = r.outcome.tape;
    const RunOutcome again = execute_case(pinned);
    auto counters_eq = [](const sim::PulseNetwork::Counters& a,
                          const sim::PulseNetwork::Counters& b) {
      return a.sent == b.sent && a.delivered == b.delivered &&
             a.consumed == b.consumed && a.injected == b.injected &&
             a.dropped == b.dropped && a.duplicated == b.duplicated &&
             a.crashes == b.crashes && a.recoveries == b.recoveries &&
             a.crash_lost == b.crash_lost;
    };
    if (!counters_eq(again.counters, r.outcome.counters) ||
        again.roles != r.outcome.roles ||
        again.report.quiescent != r.outcome.report.quiescent) {
      fail("replay-agreement",
           "tape replay diverged: pulses " +
               std::to_string(again.counters.sent) + " vs " +
               std::to_string(r.outcome.counters.sent));
    }
  }
  return r;
}

std::string check_engine_agreement(const FuzzCase& c, std::uint64_t budget) {
  COLEX_EXPECTS(c.clean());
  auto build = [&c]() { return build_case_network(c); };
  sim::ExploreStats stats[2];
  std::vector<std::uint64_t> digests[2];
  sim::ExploreOptions options;
  options.budget = budget;
  const auto leaf_into = [&c](std::vector<std::uint64_t>& sink) {
    return [&sink, &c](sim::PulseNetwork& net) {
      sink.push_back(leaf_digest(c, net));
    };
  };
  stats[0] = sim::explore_all_schedules(build, leaf_into(digests[0]), options);
  stats[1] = replay_explore_all_schedules(build, leaf_into(digests[1]), options);
  if (!(stats[0] == stats[1])) {
    return "engine stats diverge: snapshot leaves=" +
           std::to_string(stats[0].leaves) +
           " truncated=" + std::to_string(stats[0].truncated) +
           ", replay leaves=" + std::to_string(stats[1].leaves) +
           " truncated=" + std::to_string(stats[1].truncated);
  }
  if (digests[0] != digests[1]) {
    return "engines visit identical stats but different leaf outcomes";
  }
  return {};
}

std::string check_runtime_agreement(const FuzzCase& c,
                                    std::uint64_t timeout_ms) {
  COLEX_EXPECTS(c.clean());
  rt::ThreadAlg alg = rt::ThreadAlg::alg3_improved;
  switch (c.alg) {
    case Algorithm::alg1: alg = rt::ThreadAlg::alg1; break;
    case Algorithm::alg2: alg = rt::ThreadAlg::alg2; break;
    case Algorithm::alg3_doubled: alg = rt::ThreadAlg::alg3_doubled; break;
    case Algorithm::alg3_improved:
    case Algorithm::alg4: alg = rt::ThreadAlg::alg3_improved; break;
  }
  const RunOutcome sim_run = execute_case(c);
  // The coroutine executor, with two workers so the work-stealing and
  // sleep/wake paths are actually exercised.
  const coro::CoroRunResult coroed =
      coro::run_on_coro(c.ids, c.port_flips, alg, {2, timeout_ms, nullptr});
  if (!coroed.completed) {
    return "coro runtime did not settle: " + coroed.stall_dump;
  }
  if (coroed.leader_count != sim_run.leader_count) {
    return "leader count: coro " + std::to_string(coroed.leader_count) +
           " vs sim " + std::to_string(sim_run.leader_count);
  }
  if (coroed.leader != sim_run.leader) {
    return "leader identity differs between coro runtime and sim";
  }
  if (coroed.pulses != exact_pulses(c) ||
      sim_run.counters.sent != exact_pulses(c)) {
    return "pulse counts: coro runtime " + std::to_string(coroed.pulses) +
           ", sim " + std::to_string(sim_run.counters.sent) +
           ", paper predicts " + std::to_string(exact_pulses(c));
  }
  // Real TCP sockets on loopback — small rings only (each
  // node costs a thread plus four descriptors, and the oracle runs inside
  // fuzz campaigns).
  if (c.n() <= 8) {
    net::SocketRunOptions sopts;
    sopts.timeout_ms = timeout_ms;
    const net::SocketRunResult socketed =
        net::run_on_sockets(c.ids, c.port_flips, alg, sopts);
    if (!socketed.completed) {
      return "socket runtime did not settle: " + socketed.stall_dump;
    }
    if (socketed.leader_count != sim_run.leader_count) {
      return "leader count: socket " + std::to_string(socketed.leader_count) +
             " vs sim " + std::to_string(sim_run.leader_count);
    }
    if (socketed.leader != sim_run.leader) {
      return "leader identity differs between socket runtime and sim";
    }
    if (socketed.pulses != exact_pulses(c)) {
      return "pulse count: socket runtime " +
             std::to_string(socketed.pulses) + ", paper predicts " +
             std::to_string(exact_pulses(c));
    }
    if (socketed.consumed != socketed.pulses) {
      return "socket runtime conservation: sent " +
             std::to_string(socketed.pulses) + " != consumed " +
             std::to_string(socketed.consumed);
    }
  }
  return {};
}

}  // namespace colex::qa
