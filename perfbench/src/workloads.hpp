// Entry point of the election benchmark, shared by the measured binary and
// its planted-slowdown twin (tests/planted_main.cpp).
#pragma once

#include <functional>
#include <memory>

#include "sim/scheduler.hpp"

namespace colex::perfbench {

/// Wraps the scheduler that sim-large-ring elects under. Empty means the
/// plain sim::GlobalFifoScheduler.
using SchedulerWrap =
    std::function<std::unique_ptr<sim::Scheduler>(sim::Scheduler& inner)>;

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--spans PATH]`,
/// runs the workload and prints its report line. Returns the exit code.
int bench_main(int argc, char** argv, const SchedulerWrap& wrap = {});

}  // namespace colex::perfbench
