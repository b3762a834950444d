// Concurrency-discipline pass (rules T001–T003) for the hand-rolled
// synchronization the substrates grew in PRs 6–9: SPSC channels, the
// Chase-Lev deque, Dekker sleep/wake and the seqlock flight recorder.
//
//   T001  unpaired memory orders on a class-scope atomic member: a
//         release store no acquire/seq_cst load ever observes (or an
//         acquire load no release/seq_cst store ever publishes) cannot
//         synchronize-with anything — the fence is decorative.
//         RMWs (fetch_*, exchange, compare_exchange_*) count on both
//         sides; an orderless call defaults to seq_cst.
//   T002  a blocking call (mutex locks, condvar waits, sleeps, joins,
//         send_all/recv_byte syscall wrappers) lexically inside a
//         coroutine body, or reachable from one on the call graph through
//         functions defined under src/coro — a worker thread that blocks
//         stalls every parked node it is supposed to resume.
//   T003  seqlock writer shape (obs/flight): a function that stores
//         payload atomics of a class carrying a *version* atomic must
//         bracket every payload store between two version stores (the
//         odd/even protocol readers validate against).
//
// The Transport/PulsePort backend surface needs no rule: each backend
// static_asserts its conformance to the concept.
//
// All three run single-threaded in run_rules' sequential epilogue: they need
// project-wide joins (use sites across files, call-graph reachability) and
// are cheap next to the per-file scans.
#pragma once

#include <vector>

#include "lint/callgraph.hpp"
#include "lint/rules.hpp"
#include "lint/symbols.hpp"

namespace colex::lint {

void run_concurrency_rules(const std::vector<SourceFile>& files,
                           const ProjectIndex& project,
                           const SymbolTable& symbols, const CallGraph& graph,
                           std::vector<Finding>& out);

}  // namespace colex::lint
