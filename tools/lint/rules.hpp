// The colex-lint rule catalog (see DESIGN.md §8 for the rationale).
//
// Three passes feed the catalog:
//   lexical      — per-file token scans over the scope walker's index
//   taint        — interprocedural obliviousness taint (taint.hpp)
//   concurrency  — concurrency discipline over the symbol table + call
//                  graph (concurrency.hpp)
//
// Families:
//   D (determinism)       — D001 banned nondeterminism sources,
//                           D002 unordered-container iteration,
//                           D003 mutable function-local statics
//   M (model conformance) — M001 payload-content reads in automaton code,
//                           M002 neighbor/global network state access,
//                           M003 non-empty Pulse payload / content-carrying
//                                instantiations in content-oblivious code
//   C (clone completeness)— C001 clone()/copy path missing a data member
//   H (hygiene)           — H001 header without include guard,
//                           H002 `using namespace` in a header
//   O (obliviousness)     — O001 taint into a branch condition,
//                           O002 taint into a loop bound,
//                           O003 taint into a send-family call
//   T (concurrency)       — T001 unpaired atomic memory orders,
//                           T002 blocking call reachable from a coroutine,
//                           T003 seqlock writer protocol shape
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/classes.hpp"
#include "lint/source.hpp"

namespace colex::lint {

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
  std::string pass = "lexical";  // lexical | taint | concurrency
};

struct RuleInfo {
  std::string id;
  std::string pass;  // which analyzer pass produces it
  std::string summary;
};

/// Stable catalog, ordered by rule id (for --list-rules and the docs).
std::vector<RuleInfo> rule_catalog();

/// Runs every rule over the project. Returned findings are pre-suppression
/// (the driver applies allow markers) and sorted by (file, line, rule).
/// `workers` fans the per-file scans (lexical + taint sinks) out over the
/// sim/parallel.hpp pool; the symbol/call-graph build and the global rules
/// (C001, T001–T003) stay single-threaded. The result is identical for any
/// worker count (per-file slots, sequential aggregation).
std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const ProjectIndex& project,
                               std::size_t workers);

std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const ProjectIndex& project);

}  // namespace colex::lint
