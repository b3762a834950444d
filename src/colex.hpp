// Umbrella header: the full public API of the colex library.
//
//   #include "colex.hpp"
//
// Namespaces:
//   colex::sim        the fully defective ring network simulator
//   colex::co         the paper's algorithms (Algorithms 1-4 + adapters)
//   colex::lb         lower-bound machinery (solitude patterns)
//   colex::colib      universal content-oblivious computation (token bus)
//   colex::baselines  classical content-carrying elections
//   colex::rt         the blocking transcriptions and the PulsePort concept
//   colex::coro       C++20-coroutine executor (million-node rings, scripted
//                     faults, the automaton host)
//   colex::util       RNG, statistics, ID generators, tables
#pragma once

#include "baselines/baselines.hpp"
#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "co/invariants.hpp"
#include "co/replicated.hpp"
#include "co/sampling.hpp"
#include "colib/apps.hpp"
#include "colib/bus.hpp"
#include "colib/composed.hpp"
#include "colib/framing.hpp"
#include "coro/faults.hpp"
#include "coro/host.hpp"
#include "coro/run.hpp"
#include "lb/solitude.hpp"
#include "runtime/port.hpp"
#include "runtime/blocking_algs.hpp"
#include "sim/network.hpp"
#include "sim/explore.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
