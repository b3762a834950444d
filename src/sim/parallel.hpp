// Parallel sweep harness: a minimal work-stealing pool plus a parallel
// version of the exhaustive schedule explorer (sim/explore.hpp).
//
// Determinism contract
// --------------------
// Every parallel primitive here is *worker-count oblivious*: the result is
// a pure function of the inputs, identical for 1, 2, or N workers, because
//  * tasks write only to their own index's slot of caller-owned storage
//    (no shared accumulators, no locks on the hot path), and
//  * aggregation happens sequentially, in task-index order, after the pool
//    has joined.
// The pool itself is a single atomic cursor over the task range: idle
// workers "steal" the next unclaimed index, so uneven subtrees load-balance
// without any per-task queueing machinery. tests/test_parallel_explore.cpp
// asserts the 1-vs-N equivalence and runs under TSan in ci.sh.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "sim/explore.hpp"
#include "sim/network.hpp"
#include "util/contracts.hpp"
#include "util/cpus.hpp"

namespace colex::sim {

/// Default worker count for sweeps: the CPUs this process may run on.
inline std::size_t default_workers() { return util::usable_cpus(); }

/// Runs `count` independent tasks on up to `workers` threads; `fn(i)` is
/// invoked exactly once for every i in [0, count). With workers <= 1 the
/// tasks run inline on the calling thread — the zero-thread degenerate case
/// the determinism tests compare against. `fn` must confine its writes to
/// per-index state; it must not throw (a worker-thread exception would
/// terminate the process).
inline void parallel_for(std::size_t count, std::size_t workers,
                         const std::function<void(std::size_t)>& fn) {
  if (workers <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  auto drain = [&cursor, count, &fn] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  const std::size_t spawned = std::min(workers, count) - 1;
  pool.reserve(spawned);
  for (std::size_t t = 0; t < spawned; ++t) pool.emplace_back(drain);
  drain();  // the calling thread works too
  for (auto& th : pool) th.join();
}

/// Per-worker utilization telemetry for an instrumented parallel_for run.
/// Worker 0 is the calling thread. NOTE: unlike everything else in this
/// header, these numbers are inherently worker-count *dependent* — they
/// describe the machine, not the computation — so they live strictly on the
/// observability side and never feed back into results.
struct WorkerStats {
  std::uint64_t tasks = 0;      ///< task indices this worker claimed
  double busy_seconds = 0.0;    ///< wall time spent inside fn
};

/// parallel_for variant that reports which worker ran each task and how
/// long each worker stayed busy. `fn(worker, task)`; the returned vector
/// has one entry per worker slot (min(workers, count), at least 1). Each
/// worker writes only its own slot, so the collection is race-free.
inline std::vector<WorkerStats> parallel_for_instrumented(
    std::size_t count, std::size_t workers,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t slots =
      count == 0 ? 1 : std::min(workers <= 1 ? 1 : workers, count);
  std::vector<WorkerStats> stats(slots);
  if (slots <= 1) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    stats[0].tasks = count;
    stats[0].busy_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return stats;
  }
  std::atomic<std::size_t> cursor{0};
  auto drain = [&cursor, count, &fn, &stats](std::size_t worker) {
    WorkerStats& mine = stats[worker];
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const auto t0 = std::chrono::steady_clock::now();
      fn(worker, i);
      mine.busy_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      ++mine.tasks;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(slots - 1);
  for (std::size_t t = 1; t < slots; ++t) {
    pool.emplace_back(drain, t);
  }
  drain(0);  // the calling thread works too
  for (auto& th : pool) th.join();
  return stats;
}

struct ParallelExploreOptions {
  /// Caps tree nodes visited, split deterministically across subtrees (the
  /// frontier split below), so truncation does not depend on worker count.
  std::uint64_t budget = 1'000'000;
  std::size_t workers = 1;
  /// The explorer first expands the tree breadth-first (sequentially) until
  /// at least this many independent frontier subtrees exist, then fans the
  /// subtrees out to the pool. More subtrees = better load balancing at the
  /// price of a longer sequential prefix.
  std::size_t min_subtrees = 64;
  /// Optional telemetry sink (visits/clones summed across subtrees, wall
  /// seconds, frontier depth); null keeps the uninstrumented fast path.
  ExploreTelemetry* telemetry = nullptr;
  /// Optional per-worker utilization sink. When set, subtrees are dispatched
  /// through parallel_for_instrumented and the vector is replaced with one
  /// WorkerStats per worker slot. Purely observational — results remain
  /// worker-count oblivious either way.
  std::vector<WorkerStats>* worker_stats = nullptr;
};

/// Parallel exhaustive exploration with deterministic aggregation. Each
/// frontier subtree explores into its own ExploreStats and its own `Acc`
/// (copied from the neutral value in `acc`); after the pool joins, the
/// per-subtree results are folded into `acc` in subtree order with
/// `merge(acc, subtree_acc)`, and the summed stats are returned. `on_leaf`
/// may freely mutate its Acc — it owns it exclusively — but must not touch
/// anything shared.
///
/// Exhaustive runs produce exactly the leaves of the sequential snapshot
/// engine (leaf *order* differs: breadth-first prefix, then depth-first per
/// subtree — but identically so for every worker count).
template <typename Acc>
ExploreStats parallel_explore_all_schedules(
    const std::function<PulseNetwork()>& build,
    const std::function<void(Acc&, PulseNetwork&)>& on_leaf,
    const std::function<void(Acc&, const Acc&)>& merge, Acc& acc,
    const ParallelExploreOptions& options) {
  COLEX_EXPECTS(options.budget > 0);
  ExploreStats stats;
  std::uint64_t budget = options.budget;
  const auto wall_start = std::chrono::steady_clock::now();
  auto stamp_seconds = [&] {
    if (options.telemetry) {
      options.telemetry->seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
    }
  };

  struct Frontier {
    PulseNetwork net;
    std::uint64_t depth = 0;
  };
  std::deque<Frontier> queue;
  {
    Frontier root;
    root.net = build();
    root.net.start_all();
    queue.push_back(std::move(root));
  }

  // Sequential breadth-first expansion into independent subtree roots.
  // Each expansion is one tree-node visit (same budget unit as the DFS).
  const std::size_t want = options.min_subtrees == 0 ? 1 : options.min_subtrees;
  while (!queue.empty() && queue.size() < want && budget > 0) {
    Frontier f = std::move(queue.front());
    queue.pop_front();
    --budget;
    if (options.telemetry) ++options.telemetry->visits;
    const auto pending = f.net.pending_channels();
    if (pending.empty()) {
      ++stats.leaves;
      stats.max_depth = std::max(stats.max_depth, f.depth);
      on_leaf(acc, f.net);
      continue;
    }
    for (std::size_t i = 0; i + 1 < pending.size(); ++i) {
      Frontier child;
      child.net = f.net.clone();
      if (options.telemetry) ++options.telemetry->clones;
      child.net.deliver_step(pending[i]);
      child.depth = f.depth + 1;
      queue.push_back(std::move(child));
    }
    f.net.deliver_step(pending.back());
    ++f.depth;
    queue.push_back(std::move(f));
  }
  if (queue.empty()) {
    stamp_seconds();
    return stats;  // whole tree fit into the expansion
  }

  // Deterministic budget split: subtree i gets an equal share, the first
  // (budget mod subtrees) subtrees one unit more. Independent of workers.
  const std::size_t subtrees = queue.size();
  if (options.telemetry) {
    options.telemetry->frontier_subtrees = subtrees;
  }
  std::vector<Frontier> roots(std::make_move_iterator(queue.begin()),
                              std::make_move_iterator(queue.end()));
  std::vector<std::uint64_t> quota(subtrees, budget / subtrees);
  for (std::size_t i = 0; i < budget % subtrees; ++i) ++quota[i];

  std::vector<ExploreStats> sub_stats(subtrees);
  std::vector<Acc> sub_acc(subtrees, acc);
  // Per-subtree telemetry: each worker writes only its own subtree's slot
  // (same ownership discipline as sub_acc), merged sequentially after join.
  std::vector<ExploreTelemetry> sub_telemetry(
      options.telemetry ? subtrees : 0);
  auto explore_subtree = [&](std::size_t i) {
    Acc& local = sub_acc[i];
    const std::function<void(PulseNetwork&)> leaf =
        [&local, &on_leaf](PulseNetwork& net) { on_leaf(local, net); };
    detail::snapshot_explore(roots[i].net, roots[i].depth, quota[i],
                             sub_stats[i], leaf,
                             options.telemetry ? &sub_telemetry[i] : nullptr);
  };
  if (options.worker_stats) {
    *options.worker_stats = parallel_for_instrumented(
        subtrees, options.workers,
        [&](std::size_t, std::size_t i) { explore_subtree(i); });
  } else {
    parallel_for(subtrees, options.workers, explore_subtree);
  }

  for (std::size_t i = 0; i < subtrees; ++i) {
    stats.leaves += sub_stats[i].leaves;
    stats.truncated += sub_stats[i].truncated;
    stats.max_depth = std::max(stats.max_depth, sub_stats[i].max_depth);
    merge(acc, sub_acc[i]);
    if (options.telemetry) options.telemetry->merge(sub_telemetry[i]);
  }
  stamp_seconds();
  return stats;
}

}  // namespace colex::sim
