// Runs event-driven pulse automata (the objects the discrete simulator
// hosts) on the coroutine executor's worker threads. sim::Context is an
// abstract interface, so Algorithm 1/2/3, the replication adapter, the
// token bus and the whole Corollary 5 composition run unmodified on real
// asynchrony, at any worker count.
//
// Each node is one coroutine: start, react, then wait_any -> react until
// the automaton terminates or the run stops. The executor wakes a waiting
// node only for a pulse on a port it polled empty, so the host reacts
// again after every react that took or sent a pulse and waits only after
// one that did neither; a queued(p) that reads 0 counts as polling p. At
// W >= 2 reacts run while neighbours deposit pulses, so
// serialized_reactions() is false. DESIGN.md §10.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coro/run.hpp"
#include "sim/network.hpp"

namespace colex::coro {

/// Builds the automaton for ring position v.
using HostFactory =
    std::function<std::unique_ptr<sim::PulseAutomaton>(sim::NodeId v)>;

struct HostRunResult {
  /// The automata after the run, for state extraction (index = ring
  /// position). Typed access via dynamic_cast, as with the simulator.
  std::vector<std::unique_ptr<sim::PulseAutomaton>> automata;
  std::uint64_t pulses = 0;
  bool completed = false;       ///< natural termination or quiescence
  bool all_terminated = false;  ///< every automaton reached terminated()
  std::string stall_dump;       ///< non-empty iff the watchdog fired
};

/// Runs one automaton per node of an n-ring until every node terminates,
/// the executor detects quiescence, or the watchdog fires.
HostRunResult run_automata_on_coro(std::size_t n,
                                   const std::vector<bool>& port_flips,
                                   const HostFactory& factory,
                                   const CoroRunOptions& options = {});

}  // namespace colex::coro
