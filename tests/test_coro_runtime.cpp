// Tests for the coroutine event-loop runtime (src/coro): the template
// transcriptions must produce the simulator's elections — exact Theorem 1
// / Corollary 13 pulse counts — when executed as coroutines on a
// work-stealing executor, from n=1 self-loops up to a 10^5-node smoke. The
// lock-free building blocks (pulse channels, Chase-Lev deque) get direct
// unit and race coverage, which is what the TSan CI stage runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "co/election.hpp"
#include "coro/deque.hpp"
#include "coro/executor.hpp"
#include "coro/ring.hpp"
#include "coro/run.hpp"
#include "coro/spsc.hpp"
#include "helpers.hpp"

namespace colex::coro {
namespace {

// --- Pulse channels --------------------------------------------------------

TEST(PulseChannel, ProduceConsumeCounts) {
  PulseChannel ch;
  EXPECT_EQ(ch.pending(), 0u);
  EXPECT_FALSE(ch.try_consume());
  ch.produce();
  ch.produce();
  EXPECT_EQ(ch.pending(), 2u);
  ch.settle();  // the sender's ordering RMW deposits nothing
  EXPECT_EQ(ch.pending(), 2u);
  EXPECT_TRUE(ch.try_consume());
  EXPECT_TRUE(ch.try_consume());
  EXPECT_FALSE(ch.try_consume());
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(PulseChannel, ConcurrentProducerNeverLosesAPulse) {
  PulseChannel ch;
  constexpr std::uint64_t kPulses = 20'000;
  std::thread producer([&ch] {
    for (std::uint64_t i = 0; i < kPulses; ++i) ch.produce();
  });
  std::uint64_t consumed = 0;
  while (consumed < kPulses) {
    if (ch.try_consume()) {
      ++consumed;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(ch.pending(), 0u);
}

// --- Chase-Lev deque -------------------------------------------------------

TEST(WorkDeque, OwnerLifoThiefFifo) {
  WorkDeque d(8);
  for (std::uint32_t v = 0; v < 4; ++v) d.push(v);
  EXPECT_EQ(d.size(), 4u);
  std::uint32_t out = 0;
  ASSERT_TRUE(d.pop(out));
  EXPECT_EQ(out, 3u);  // owner takes the newest
  ASSERT_TRUE(d.steal(out));
  EXPECT_EQ(out, 0u);  // thief takes the oldest
  ASSERT_TRUE(d.pop(out));
  EXPECT_EQ(out, 2u);
  ASSERT_TRUE(d.steal(out));
  EXPECT_EQ(out, 1u);
  EXPECT_FALSE(d.pop(out));
  EXPECT_FALSE(d.steal(out));
}

TEST(WorkDeque, StealStressEveryEntryClaimedExactlyOnce) {
  // Owner pushes and pops while two thieves hammer steal(): every pushed
  // index must be claimed exactly once across the three threads. This is
  // the pop-vs-steal last-entry race that decides executor correctness.
  constexpr std::uint32_t kEntries = 20'000;
  WorkDeque d(kEntries);
  std::vector<std::atomic<std::uint32_t>> claimed(kEntries);
  std::atomic<bool> done{false};
  auto thief = [&] {
    std::uint32_t v = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (!d.steal(v)) {
        std::this_thread::yield();
        continue;
      }
      claimed[v].fetch_add(1, std::memory_order_relaxed);
    }
    while (d.steal(v)) claimed[v].fetch_add(1, std::memory_order_relaxed);
  };
  std::thread t1(thief), t2(thief);
  std::uint32_t v = 0;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    d.push(i);
    if ((i & 3u) == 0 && d.pop(v)) {  // owner competes at the bottom
      claimed[v].fetch_add(1, std::memory_order_relaxed);
    }
  }
  while (d.pop(v)) claimed[v].fetch_add(1, std::memory_order_relaxed);
  done.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    ASSERT_EQ(claimed[i].load(), 1u) << "entry " << i;
  }
}

TEST(YieldQueue, FifoOrder) {
  YieldQueue q(4);
  EXPECT_TRUE(q.empty());
  q.push(7);
  q.push(8);
  q.push(9);
  std::uint32_t out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7u);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 8u);
  q.push(10);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 9u);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 10u);
  EXPECT_FALSE(q.pop(out));
}

// --- Node table ------------------------------------------------------------

TEST(CoroRing, NodePacksIntoOneCacheLine) {
  EXPECT_EQ(sizeof(CoroNode), kCacheLine);
  EXPECT_EQ(alignof(CoroNode), kCacheLine);
}

TEST(CoroRing, WiringMatchesSimulator) {
  // Edge i: node i's Port1 attaches to node i+1's Port0 (oriented base).
  const auto nodes = wire_ring(3, {});
  EXPECT_EQ(nodes[0].peer[1], 1u);
  EXPECT_EQ(nodes[0].peer_port[1], 0u);
  EXPECT_EQ(nodes[1].peer[0], 0u);
  EXPECT_EQ(nodes[2].peer[1], 0u);  // wraps
  // A flipped node swaps its own labels, exactly like sim::Network::ring.
  const auto flipped = wire_ring(3, {false, true, false});
  EXPECT_EQ(flipped[0].peer[1], 1u);
  EXPECT_EQ(flipped[0].peer_port[1], 1u);  // node 1 receives on its p1
}

// --- Elections on the executor --------------------------------------------

TEST(CoroAlg2, MatchesTheorem1Exactly) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1, 7};
  const auto result = run_on_coro(ids, {}, rt::ThreadAlg::alg2);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, co::theorem1_pulses(ids.size(), 11));
  EXPECT_EQ(result.leader_count, 1u);
  ASSERT_TRUE(result.leader.has_value());
  EXPECT_EQ(*result.leader, 1u);
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    const auto& out = result.outcomes[v];
    EXPECT_TRUE(out.terminated) << v;
    EXPECT_FALSE(out.stopped) << v;
    EXPECT_EQ(out.counters.rho_cw, 11u) << v;
    EXPECT_EQ(out.counters.rho_ccw, 12u) << v;
  }
}

TEST(CoroAlg2, SmallRingsExactAcrossSizes) {
  // n in {1, 2, 3} with dense ids: pulses == n(2n + 1) (Theorem 1).
  for (std::size_t n = 1; n <= 3; ++n) {
    const auto ids = test::shuffled(test::dense_ids(n), n);
    const auto result = run_on_coro(ids, {}, rt::ThreadAlg::alg2);
    ASSERT_TRUE(result.completed) << n;
    EXPECT_EQ(result.pulses, co::theorem1_pulses(n, n)) << n;
    EXPECT_EQ(result.leader_count, 1u) << n;
  }
}

TEST(CoroAlg2, MidSizeRingExact) {
  constexpr std::size_t kN = 257;
  const auto ids = test::shuffled(test::dense_ids(kN), 7);
  const auto result = run_on_coro(ids, {}, rt::ThreadAlg::alg2);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, co::theorem1_pulses(kN, kN));
  EXPECT_EQ(result.leader_count, 1u);
}

TEST(CoroAlg2, MultiWorkerStaysExact) {
  constexpr std::size_t kN = 257;
  const auto ids = test::shuffled(test::dense_ids(kN), 11);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const auto result =
        run_on_coro(ids, {}, rt::ThreadAlg::alg2, {workers, 30'000, nullptr});
    ASSERT_TRUE(result.completed) << workers;
    EXPECT_EQ(result.pulses, co::theorem1_pulses(kN, kN)) << workers;
    EXPECT_EQ(result.leader_count, 1u) << workers;
    EXPECT_EQ(result.stats.workers, workers);
  }
}

TEST(CoroAlg1, QuiescenceDetectionMatchesCorollary13) {
  const std::vector<std::uint64_t> ids{5, 9, 2, 7, 1};
  const auto result = run_on_coro(ids, {}, rt::ThreadAlg::alg1);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 5u * 9u);  // Corollary 13
  EXPECT_EQ(result.leader_count, 1u);
  EXPECT_EQ(*result.leader, 1u);
  for (const auto& out : result.outcomes) {
    EXPECT_TRUE(out.stopped);  // ended by counter-based quiescence
    EXPECT_FALSE(out.terminated);
    EXPECT_EQ(out.counters.rho_cw, 9u);
  }
}

TEST(CoroAlg1, DuplicateMaximaAllLead) {
  // Lemma 16: Algorithm 1 tolerates duplicate IDs; every max holder leads.
  const std::vector<std::uint64_t> ids{4, 2, 4, 1};
  const auto result = run_on_coro(ids, {}, rt::ThreadAlg::alg1);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 4u * 4u);
  EXPECT_EQ(result.leader_count, 2u);
  EXPECT_EQ(result.outcomes[0].role, co::Role::leader);
  EXPECT_EQ(result.outcomes[2].role, co::Role::leader);
}

TEST(CoroAlg3, ElectsAndOrientsOnScrambledRing) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9};
  const std::vector<bool> flips{true, false, true, true};
  const auto result = run_on_coro(ids, flips, rt::ThreadAlg::alg3_improved);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, co::theorem1_pulses(4, 11));
  EXPECT_EQ(result.leader_count, 1u);
  EXPECT_EQ(*result.leader, 1u);
  bool all_cw = true, all_ccw = true;
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    if (result.outcomes[v].cw_port == co::physical_cw_port(flips, v)) {
      all_ccw = false;
    } else {
      all_cw = false;
    }
  }
  EXPECT_TRUE(all_cw || all_ccw);
}

TEST(CoroAlg3, DoubledSchemeAllScramblesSmallRing) {
  const std::vector<std::uint64_t> ids{3, 7, 2};
  for (const auto& flips : test::all_flip_masks(3)) {
    const auto result = run_on_coro(ids, flips, rt::ThreadAlg::alg3_doubled);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.pulses, co::prop15_pulses(3, 7));
    EXPECT_EQ(result.leader_count, 1u);
    EXPECT_EQ(*result.leader, 1u);
  }
}

TEST(CoroAlg2, SingleNodeSelfLoop) {
  const auto result = run_on_coro({5}, {}, rt::ThreadAlg::alg2);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 11u);
  EXPECT_EQ(result.leader_count, 1u);
}

TEST(CoroExecutor, SingleWorkerRunsAreDeterministic) {
  // workers=1 has no steals and a fixed pop order, so two runs must agree
  // on every observable: outcomes, counters, and scheduler telemetry.
  const auto ids = test::shuffled(test::dense_ids(23), 5);
  const auto a = run_on_coro(ids, {}, rt::ThreadAlg::alg2);
  const auto b = run_on_coro(ids, {}, rt::ThreadAlg::alg2);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.pulses, b.pulses);
  EXPECT_EQ(a.stats.resumes, b.stats.resumes);
  EXPECT_EQ(a.stats.wakeups, b.stats.wakeups);
  EXPECT_EQ(a.stats.batched, b.stats.batched);
  EXPECT_EQ(a.stats.deferred, b.stats.deferred);
  EXPECT_EQ(a.stats.yields, b.stats.yields);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (sim::NodeId v = 0; v < ids.size(); ++v) {
    EXPECT_EQ(a.outcomes[v].role, b.outcomes[v].role) << v;
    EXPECT_EQ(a.outcomes[v].counters.rho_cw, b.outcomes[v].counters.rho_cw);
    EXPECT_EQ(a.outcomes[v].counters.rho_ccw, b.outcomes[v].counters.rho_ccw);
  }
}

TEST(CoroExecutor, AgreesWithSimulator) {
  // Two execution models, one answer: the discrete simulator and the
  // coroutine executor.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto ids = test::sparse_ids(2 + seed % 5, 30, seed);
    sim::RandomScheduler sched(seed);
    const auto simulated = co::elect_oriented_terminating(ids, sched);
    const auto coro = run_on_coro(ids, {}, rt::ThreadAlg::alg2);
    ASSERT_TRUE(simulated.valid_election());
    ASSERT_TRUE(coro.completed);
    EXPECT_EQ(coro.pulses, simulated.pulses) << "seed " << seed;
    ASSERT_TRUE(coro.leader.has_value());
    EXPECT_EQ(*coro.leader, *simulated.leader) << "seed " << seed;
    for (sim::NodeId v = 0; v < ids.size(); ++v) {
      EXPECT_EQ(coro.outcomes[v].role, simulated.nodes[v].role);
      EXPECT_EQ(coro.outcomes[v].counters.rho_cw, simulated.nodes[v].rho_cw);
      EXPECT_EQ(coro.outcomes[v].counters.rho_ccw, simulated.nodes[v].rho_ccw);
    }
  }
}

/// Sends `k` pulses on `p` in its first resume, then waits until stopped.
template <rt::PulsePort Io>
rt::ElectionTask pulses_then_wait(Io io, sim::Port p, std::uint64_t k = 1) {
  rt::BlockingOutcome out;
  for (std::uint64_t i = 0; i < k; ++i) io.send(p);
  for (;;) {
    if (!co_await io.wait_any()) {
      out.stopped = true;
      co_return out;
    }
  }
}

/// Sends `k` pulses on `p` in its first resume, then returns.
template <rt::PulsePort Io>
rt::ElectionTask pulses_then_return(Io io, sim::Port p, std::uint64_t k) {
  for (std::uint64_t i = 0; i < k; ++i) io.send(p);
  co_return rt::BlockingOutcome{};
}

/// Reads `k` pulses on `p`, waiting whenever it is empty, then returns.
template <rt::PulsePort Io>
rt::ElectionTask reads_only(Io io, sim::Port p, std::uint64_t k = 1) {
  rt::BlockingOutcome out;
  for (std::uint64_t got = 0; got < k;) {  // never looks at the other port
    if (io.recv(p)) {
      ++got;
    } else if (!co_await io.wait_any()) {
      out.stopped = true;
      co_return out;
    }
  }
  co_return out;
}

template <rt::PulsePort Io>
rt::ElectionTask returns_at_once(Io) {
  co_return rt::BlockingOutcome{};
}

/// Waits until stopped, then sends `k` pulses on `p` on its way out.
template <rt::PulsePort Io>
rt::ElectionTask pulses_when_stopped(Io io, sim::Port p, std::uint64_t k) {
  rt::BlockingOutcome out;
  while (co_await io.wait_any()) {
  }
  for (std::uint64_t i = 0; i < k; ++i) io.send(p);
  out.stopped = true;
  co_return out;
}

template <rt::PulsePort Io>
rt::ElectionTask deaf_node(Io io) {
  rt::BlockingOutcome out;
  for (;;) {  // wakes on every pulse but never consumes one
    if (!co_await io.wait_any()) {
      out.stopped = true;
      co_return out;
    }
  }
}

TEST(CoroExecutor, WatchdogFiresOnUndeliveredPulse) {
  // Node 0 sends one pulse to node 1, which never consumes it: the fabric
  // can neither quiesce (sent != consumed) nor terminate, and node 1 keeps
  // yielding on its pending-but-unread pulse. The watchdog must abort with
  // a stall dump instead of hanging.
  Executor ex(2, {}, ExecutorOptions{1, 300, nullptr});
  auto t0 = pulses_then_wait(ex.io(0), co::kCwPort);
  auto t1 = deaf_node(ex.io(1));
  ex.bind(0, t0.handle());
  ex.bind(1, t1.handle());
  EXPECT_FALSE(ex.run());
  EXPECT_TRUE(ex.timed_out());
  EXPECT_FALSE(ex.quiescent());
  EXPECT_NE(ex.stall_dump().find("coro-executor state"), std::string::npos);
  EXPECT_TRUE(t0.outcome().stopped);
  EXPECT_TRUE(t1.outcome().stopped);
  EXPECT_GT(ex.stats().yields, 0u);  // the deaf node spins via the yield path
}

TEST(CoroExecutor, ParksOnThePolledPortWhileTheOtherHoldsAPulse) {
  // Node 1 reads only its p0; node 0's one pulse lands on node 1's p1. Node
  // 1 must park on p0 rather than yield on the pulse it never reads: one
  // resume per node, no yields, and the watchdog reports the stall.
  Executor ex(2, {}, ExecutorOptions{1, 300, nullptr});
  auto t0 = pulses_then_wait(ex.io(0), sim::Port::p0);  // node 1's p1
  auto t1 = reads_only(ex.io(1), sim::Port::p0);
  ex.bind(0, t0.handle());
  ex.bind(1, t1.handle());
  EXPECT_FALSE(ex.run());
  EXPECT_TRUE(ex.timed_out());
  const ExecStats s = ex.stats();
  EXPECT_EQ(s.yields, 0u);
  EXPECT_EQ(s.resumes, 2u);
  EXPECT_EQ(s.deferred, 1u);
  EXPECT_EQ(s.wakeups, 0u);
  EXPECT_NE(ex.stall_dump().find("node 1: pending[p0]=0 pending[p1]=1 "
                                 "state=parked[p0]"),
            std::string::npos)
      << ex.stall_dump();
  EXPECT_TRUE(t1.outcome().stopped);
}

// --- Settling a resume's sends ---------------------------------------------

/// Pulses one sender deposits in a single resume.
constexpr std::uint64_t kBurst = 5;

/// Every send booked exactly once: a wakeup, batched, deferred or swallowed.
void expect_accounted(const ExecStats& s) {
  EXPECT_EQ(s.sent, kBurst);
  EXPECT_EQ(s.sent, s.wakeups + s.batched + s.deferred + s.swallowed);
}

TEST(CoroSettle, BurstToAReceiverParkedOnThatPortWakesItOnce) {
  // One worker, LIFO pops: node 1 runs first and parks on p0. Node 0's
  // kBurst pulses on its p1 land on node 1's p0 in one resume: the first
  // claims the wakeup, the rest are settled as batched when node 0 waits.
  Executor ex(2, {}, ExecutorOptions{1, 30'000, nullptr});
  auto t0 = pulses_then_wait(ex.io(0), sim::Port::p1, kBurst);
  auto t1 = reads_only(ex.io(1), sim::Port::p0, kBurst);
  ex.bind(0, t0.handle());
  ex.bind(1, t1.handle());
  ASSERT_TRUE(ex.run());
  EXPECT_TRUE(ex.quiescent());
  const ExecStats s = ex.stats();
  EXPECT_EQ(s.wakeups, 1u);
  EXPECT_EQ(s.batched, kBurst - 1);
  EXPECT_EQ(s.deferred, 0u);
  EXPECT_EQ(s.swallowed, 0u);
  EXPECT_EQ(s.consumed, kBurst);
  expect_accounted(s);
  EXPECT_FALSE(t1.outcome().stopped);  // read all kBurst pulses
}

TEST(CoroSettle, BurstToAReceiverParkedOnTheOtherPortIsDeferred) {
  // Node 1 parks on p1; the burst lands on its p0, so no pulse may wake it
  // and the settle books all of them deferred. Nothing reads them, so the
  // watchdog ends the run.
  Executor ex(2, {}, ExecutorOptions{1, 300, nullptr});
  auto t0 = pulses_then_wait(ex.io(0), sim::Port::p1, kBurst);
  auto t1 = reads_only(ex.io(1), sim::Port::p1);
  ex.bind(0, t0.handle());
  ex.bind(1, t1.handle());
  EXPECT_FALSE(ex.run());
  const ExecStats s = ex.stats();
  EXPECT_EQ(s.wakeups, 0u);
  EXPECT_EQ(s.batched, 0u);
  EXPECT_EQ(s.deferred, kBurst);
  EXPECT_EQ(s.swallowed, 0u);
  expect_accounted(s);
  EXPECT_NE(ex.stall_dump().find("node 1: pending[p0]=5 pending[p1]=0 "
                                 "state=parked[p1]"),
            std::string::npos)
      << ex.stall_dump();
}

TEST(CoroSettle, BurstToAFinishedReceiverIsSwallowed) {
  // Node 1 returns before node 0 runs: the whole burst is swallowed, which
  // counts as consumed, so the fabric quiesces.
  Executor ex(2, {}, ExecutorOptions{1, 30'000, nullptr});
  auto t0 = pulses_then_wait(ex.io(0), sim::Port::p1, kBurst);
  auto t1 = returns_at_once(ex.io(1));
  ex.bind(0, t0.handle());
  ex.bind(1, t1.handle());
  ASSERT_TRUE(ex.run());
  EXPECT_TRUE(ex.quiescent());
  const ExecStats s = ex.stats();
  EXPECT_EQ(s.wakeups, 0u);
  EXPECT_EQ(s.batched, 0u);
  EXPECT_EQ(s.deferred, 0u);
  EXPECT_EQ(s.swallowed, kBurst);
  EXPECT_EQ(s.consumed, 0u);
  expect_accounted(s);
}

TEST(CoroSettle, SenderThatReturnsSettlesBeforeItIsDone) {
  // The settle at co_return: node 0 sends its burst and returns; node 1
  // reads all of it, and both returning ends the run.
  Executor ex(2, {}, ExecutorOptions{1, 30'000, nullptr});
  auto t0 = pulses_then_return(ex.io(0), sim::Port::p1, kBurst);
  auto t1 = reads_only(ex.io(1), sim::Port::p0, kBurst);
  ex.bind(0, t0.handle());
  ex.bind(1, t1.handle());
  ASSERT_TRUE(ex.run());
  EXPECT_FALSE(ex.quiescent());  // ended by every node returning
  const ExecStats s = ex.stats();
  EXPECT_EQ(s.wakeups, 1u);
  EXPECT_EQ(s.batched, kBurst - 1);
  expect_accounted(s);
}

TEST(CoroSettle, DrainSettlesSendsMadeOnTheWayOut) {
  // Node 1 returns, node 0 parks, the fabric quiesces, and the post-join
  // drain resumes node 0, which sends its burst before returning: the
  // drain's settle books it swallowed.
  Executor ex(2, {}, ExecutorOptions{1, 30'000, nullptr});
  auto t0 = pulses_when_stopped(ex.io(0), sim::Port::p1, kBurst);
  auto t1 = returns_at_once(ex.io(1));
  ex.bind(0, t0.handle());
  ex.bind(1, t1.handle());
  ASSERT_TRUE(ex.run());
  EXPECT_TRUE(ex.quiescent());
  const ExecStats s = ex.stats();
  EXPECT_EQ(s.swallowed, kBurst);
  expect_accounted(s);
}

constexpr rt::ThreadAlg kAllAlgs[] = {
    rt::ThreadAlg::alg1, rt::ThreadAlg::alg2, rt::ThreadAlg::alg3_doubled,
    rt::ThreadAlg::alg3_improved};

/// Runs `alg` on `ids` with `workers` workers; Algorithm 3 gets `flips`,
/// the oriented algorithms none.
CoroRunResult elect(rt::ThreadAlg alg, const std::vector<std::uint64_t>& ids,
                    const std::vector<bool>& flips, std::size_t workers) {
  const bool oriented =
      alg == rt::ThreadAlg::alg1 || alg == rt::ThreadAlg::alg2;
  return run_on_coro(ids, oriented ? std::vector<bool>{} : flips, alg,
                     {workers, 30'000, nullptr});
}

/// The paper's exact pulse count, the max-ID leader, and the executor's
/// accounting: every send is one wakeup, batched, deferred or swallowed.
void expect_exact(const CoroRunResult& r, rt::ThreadAlg alg,
                  const std::vector<std::uint64_t>& ids) {
  const auto max_it = std::max_element(ids.begin(), ids.end());
  ASSERT_TRUE(r.completed) << r.stall_dump;
  EXPECT_EQ(r.pulses, rt::pulse_bound(alg, ids.size(), *max_it));
  EXPECT_EQ(r.leader_count, 1u);
  ASSERT_TRUE(r.leader.has_value());
  EXPECT_EQ(*r.leader, static_cast<sim::NodeId>(max_it - ids.begin()));
  const ExecStats& s = r.stats;
  EXPECT_EQ(s.sent, r.pulses);
  EXPECT_EQ(s.sent, s.wakeups + s.batched + s.deferred + s.swallowed);
}

TEST(CoroExecutor, SingleWorkerNeverYields) {
  // With one worker no pulse can land between a node's empty poll and its
  // wait, so a node that waits with a pulse on its other port parks on the
  // port it polled instead of yielding.
  const auto ids = test::shuffled(test::dense_ids(23), 5);
  const auto flips = test::random_flips(23, 5);
  for (const rt::ThreadAlg alg : kAllAlgs) {
    SCOPED_TRACE(static_cast<int>(alg));
    const auto r = elect(alg, ids, flips, 1);
    expect_exact(r, alg, ids);
    EXPECT_EQ(r.stats.yields, 0u);
  }
}

TEST(CoroExecutor, MultiWorkerStressStaysExact) {
  // 400 small elections with cross-worker wakeups, steals and one-port
  // parks: the TSan stage's main load on the sleep/wake protocol and on
  // run_node's hand-off of finished frames. With SingleWorkerNeverYields
  // this checks every send's accounting at W in {1, 2, 4}.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::size_t n = 1 + (seed * 13) % 64;
    const auto ids = test::sparse_ids(n, 2 * n, seed);
    const auto flips = test::random_flips(n, seed);
    for (const std::size_t workers : {2u, 4u}) {
      for (const rt::ThreadAlg alg : kAllAlgs) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " alg " +
                     std::to_string(static_cast<int>(alg)) + " W=" +
                     std::to_string(workers));
        expect_exact(elect(alg, ids, flips, workers), alg, ids);
      }
    }
  }
}

TEST(CoroExecutor, PublishesMergedMetrics) {
  obs::Registry reg;
  const auto ids = test::shuffled(test::dense_ids(8), 2);
  const auto result =
      run_on_coro(ids, {}, rt::ThreadAlg::alg2, {2, 30'000, &reg});
  ASSERT_TRUE(result.completed);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("coro.sent"), std::string::npos);
  EXPECT_NE(json.find("coro.nodes"), std::string::npos);
  EXPECT_NE(json.find("coro.workers"), std::string::npos);
  // The merged counters must agree with the aggregated stats.
  EXPECT_EQ(result.stats.sent, result.pulses);
}

TEST(CoroExecutor, RegistryLeavesTheElectionExact) {
  // Zero overhead when off, checked exactly: the same Alg 2 election at two
  // workers, dark and then with a registry, must land the same outcome.
  constexpr std::size_t kN = 1'000;
  const auto ids = test::dense_ids(kN);
  CoroRunOptions opts{2, 120'000, nullptr};
  const CoroRunResult off = run_on_coro(ids, {}, rt::ThreadAlg::alg2, opts);
  obs::Registry reg;
  opts.metrics = &reg;
  const CoroRunResult on = run_on_coro(ids, {}, rt::ThreadAlg::alg2, opts);
  ASSERT_TRUE(off.completed && on.completed);
  EXPECT_EQ(off.pulses, co::theorem1_pulses(kN, kN));
  EXPECT_EQ(on.pulses, off.pulses);
  EXPECT_EQ(on.leader, off.leader);
  ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
  std::size_t differ = 0;
  for (std::size_t v = 0; v < kN; ++v) {
    const rt::BlockingOutcome& a = off.outcomes[v];
    const rt::BlockingOutcome& b = on.outcomes[v];
    if (a.id != b.id || a.role != b.role || a.terminated != b.terminated ||
        a.phase_sends != b.phase_sends) {
      ++differ;
    }
  }
  EXPECT_EQ(differ, 0u);
  EXPECT_FALSE(reg.empty());
}

TEST(CoroExecutor, HundredThousandNodeSmoke) {
  // The capacity point of the runtime: 10^5 nodes in one process, Alg 1
  // with IDmax=2 (ids all 1, one 2), which quiesces after exactly 2n
  // pulses (Corollary 13) — a full double wave around the ring.
  constexpr std::size_t kN = 100'000;
  std::vector<std::uint64_t> ids(kN, 1);
  ids[kN / 2] = 2;
  const auto result =
      run_on_coro(ids, {}, rt::ThreadAlg::alg1, {2, 120'000, nullptr});
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.pulses, 2 * kN);
  EXPECT_EQ(result.leader_count, 1u);
  EXPECT_EQ(*result.leader, kN / 2);
}

}  // namespace
}  // namespace colex::coro
