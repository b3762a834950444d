// The CPU count every sizing decision shares: sweep workers, soak shards,
// the socket endpoint's busy-read rule and the bench env block.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <thread>

namespace colex::util {

/// CPUs this process may run on: its affinity mask, which can be smaller
/// than the machine under taskset or a cpuset
/// (std::thread::hardware_concurrency ignores it). At least 1.
inline std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace colex::util
