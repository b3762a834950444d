// Unit tests for the adversarial scheduler suite, driven directly through
// hand-crafted ChannelView sets plus end-to-end determinism checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>

#include "co/alg1.hpp"
#include "co/alg2.hpp"
#include "co/alg3.hpp"
#include "co/election.hpp"
#include "helpers.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "util/contracts.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace colex::sim {
namespace {

ChannelView view(std::size_t channel, std::size_t pending,
                 std::uint64_t head_seq, std::uint64_t head_stamp,
                 Direction dir) {
  return ChannelView{channel, pending, head_seq, head_stamp, dir};
}

TEST(Schedulers, GlobalFifoPicksOldestSeq) {
  GlobalFifoScheduler s;
  EXPECT_EQ(s.pick({view(0, 1, 5, 1, Direction::cw),
                    view(1, 1, 3, 1, Direction::ccw),
                    view(2, 2, 9, 2, Direction::cw)}),
            1u);
}

TEST(Schedulers, GlobalLifoPicksNewestSeq) {
  GlobalLifoScheduler s;
  EXPECT_EQ(s.pick({view(0, 1, 5, 1, Direction::cw),
                    view(1, 1, 3, 1, Direction::ccw),
                    view(2, 2, 9, 2, Direction::cw)}),
            2u);
}

TEST(Schedulers, RandomIsDeterministicPerSeed) {
  const std::vector<ChannelView> pending{view(0, 1, 1, 1, Direction::cw),
                                         view(1, 1, 2, 1, Direction::ccw),
                                         view(2, 1, 3, 1, Direction::cw)};
  RandomScheduler a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.pick(pending), b.pick(pending));
  a.reset();
  RandomScheduler c(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.pick(pending), c.pick(pending));
}

TEST(Schedulers, RandomEventuallyPicksEveryChannel) {
  const std::vector<ChannelView> pending{view(0, 1, 1, 1, Direction::cw),
                                         view(1, 1, 2, 1, Direction::ccw),
                                         view(2, 1, 3, 1, Direction::cw)};
  RandomScheduler s(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(s.pick(pending));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Schedulers, RoundRobinCycles) {
  RoundRobinScheduler s;
  const std::vector<ChannelView> pending{view(0, 1, 1, 1, Direction::cw),
                                         view(2, 1, 2, 1, Direction::ccw),
                                         view(5, 1, 3, 1, Direction::cw)};
  EXPECT_EQ(s.pick(pending), 2u);  // first id greater than initial last_=0
  EXPECT_EQ(s.pick(pending), 5u);
  EXPECT_EQ(s.pick(pending), 0u);  // wraps
  EXPECT_EQ(s.pick(pending), 2u);
}

TEST(Schedulers, DrainChannelSticksUntilEmpty) {
  DrainChannelScheduler s;
  // First call: picks the fullest channel (1).
  EXPECT_EQ(s.pick({view(0, 2, 1, 1, Direction::cw),
                    view(1, 5, 2, 1, Direction::ccw)}),
            1u);
  // Channel 1 still pending: stick with it.
  EXPECT_EQ(s.pick({view(0, 7, 1, 1, Direction::cw),
                    view(1, 1, 2, 1, Direction::ccw)}),
            1u);
  // Channel 1 drained: move to fullest remaining.
  EXPECT_EQ(s.pick({view(0, 7, 1, 1, Direction::cw),
                    view(3, 2, 9, 2, Direction::cw)}),
            0u);
}

TEST(Schedulers, StarveCcwPrefersCwChannels) {
  StarveDirectionScheduler s(Direction::ccw);
  EXPECT_EQ(s.pick({view(0, 1, 1, 1, Direction::ccw),
                    view(1, 1, 9, 3, Direction::cw)}),
            1u);
  // Only starved channels pending: deliver the oldest of them.
  EXPECT_EQ(s.pick({view(0, 1, 4, 1, Direction::ccw),
                    view(2, 1, 2, 1, Direction::ccw)}),
            2u);
}

TEST(Schedulers, StarveCwPrefersCcwChannels) {
  StarveDirectionScheduler s(Direction::cw);
  EXPECT_EQ(s.pick({view(0, 1, 1, 1, Direction::cw),
                    view(1, 1, 9, 3, Direction::ccw)}),
            1u);
}

TEST(Schedulers, SolitudeOrdersByStampThenCwThenSeq) {
  SolitudeScheduler s;
  // Different stamps: earliest stamp wins even with larger seq.
  EXPECT_EQ(s.pick({view(0, 1, 9, 1, Direction::ccw),
                    view(1, 1, 2, 4, Direction::cw)}),
            0u);
  // Same stamp: CW beats CCW.
  EXPECT_EQ(s.pick({view(0, 1, 1, 2, Direction::ccw),
                    view(1, 1, 5, 2, Direction::cw)}),
            1u);
  // Same stamp and direction: lower seq.
  EXPECT_EQ(s.pick({view(0, 1, 8, 2, Direction::cw),
                    view(1, 1, 5, 2, Direction::cw)}),
            1u);
}

TEST(Schedulers, EclipseStarvesItsChannel) {
  EclipseScheduler s(2);
  // Channel 2 is never chosen while anything else is pending.
  EXPECT_EQ(s.pick({view(2, 5, 1, 1, Direction::cw),
                    view(0, 1, 9, 3, Direction::ccw)}),
            0u);
  // ...even if it holds the oldest pulse.
  EXPECT_EQ(s.pick({view(2, 5, 1, 1, Direction::cw),
                    view(1, 1, 7, 2, Direction::cw),
                    view(3, 1, 9, 3, Direction::ccw)}),
            1u);
  // Alone, it finally delivers.
  EXPECT_EQ(s.pick({view(2, 5, 1, 1, Direction::cw)}), 2u);
}

TEST(Schedulers, BurstyIsDeterministicPerSeedAndAlwaysValid) {
  const std::vector<ChannelView> pending{view(0, 3, 1, 1, Direction::cw),
                                         view(4, 2, 2, 1, Direction::ccw),
                                         view(7, 1, 3, 1, Direction::cw)};
  BurstyScheduler a(9), b(9);
  for (int i = 0; i < 200; ++i) {
    const auto pa = a.pick(pending);
    EXPECT_EQ(pa, b.pick(pending));
    EXPECT_TRUE(pa == 0 || pa == 4 || pa == 7);
  }
  a.reset();
  BurstyScheduler c(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.pick(pending), c.pick(pending));
}

TEST(Schedulers, PickOnEmptyViolatesContract) {
  GlobalFifoScheduler s;
  EXPECT_THROW(s.pick({}), util::ContractViolation);
}

TEST(Schedulers, StandardSuiteHasUniqueNames) {
  const auto suite = standard_schedulers(3);
  EXPECT_EQ(suite.size(), 9u + 3u);
  std::set<std::string> names;
  for (const auto& s : suite) {
    EXPECT_EQ(s.name, s.scheduler->name());
    names.insert(s.name);
  }
  EXPECT_EQ(names.size(), suite.size());
}

TEST(Schedulers, IdenticalRunsAreBitReproducible) {
  // The same algorithm + scheduler + seed must produce identical pulse
  // traces; this underpins every exactness claim in the bench harness.
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1, 7};
  for (int rep = 0; rep < 2; ++rep) {
    RandomScheduler s1(33), s2(33);
    const auto a = co::elect_oriented_terminating(ids, s1);
    const auto b = co::elect_oriented_terminating(ids, s2);
    EXPECT_EQ(a.pulses, b.pulses);
    EXPECT_EQ(a.report.deliveries, b.report.deliveries);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t v = 0; v < a.nodes.size(); ++v) {
      EXPECT_EQ(a.nodes[v].role, b.nodes[v].role);
      EXPECT_EQ(a.nodes[v].rho_cw, b.nodes[v].rho_cw);
      EXPECT_EQ(a.nodes[v].rho_ccw, b.nodes[v].rho_ccw);
    }
  }
}


TEST(Schedulers, RecordAndReplayReproduceARunExactly) {
  const std::vector<std::uint64_t> ids{6, 11, 3, 9, 1, 7};
  RandomScheduler random(77);
  RecordingScheduler recorder(random);
  const auto original = co::elect_oriented_terminating(ids, recorder);
  ASSERT_TRUE(original.valid_election());
  ASSERT_FALSE(recorder.tape().empty());

  ReplayScheduler replay(recorder.tape());
  const auto replayed = co::elect_oriented_terminating(ids, replay);
  EXPECT_EQ(replay.divergences(), 0u);
  EXPECT_EQ(replayed.pulses, original.pulses);
  EXPECT_EQ(replayed.report.deliveries, original.report.deliveries);
  ASSERT_EQ(replayed.nodes.size(), original.nodes.size());
  for (std::size_t v = 0; v < ids.size(); ++v) {
    EXPECT_EQ(replayed.nodes[v].role, original.nodes[v].role);
    EXPECT_EQ(replayed.nodes[v].rho_cw, original.nodes[v].rho_cw);
    EXPECT_EQ(replayed.nodes[v].rho_ccw, original.nodes[v].rho_ccw);
  }
}

TEST(Schedulers, ReplayFallsBackOnDivergentTape) {
  // A tape from a different configuration cannot match; the replay must
  // still complete via the FIFO fallback and count its divergences.
  RandomScheduler random(5);
  RecordingScheduler recorder(random);
  co::elect_oriented_terminating({1, 2}, recorder);

  ReplayScheduler replay(recorder.tape());
  const auto result = co::elect_oriented_terminating({3, 9, 5, 2}, replay);
  EXPECT_TRUE(result.valid_election());
  EXPECT_GT(replay.divergences(), 0u);
}

// ---------------------------------------------------------------------------
// reset() determinism across the whole standard suite. The fault harness
// (sim/faults.hpp) reproduces faulty runs from (plan, seed, scheduler), so
// every scheduler must return to its *initial* state on reset(), not merely
// to some self-consistent one.
// ---------------------------------------------------------------------------

std::vector<TraceEvent> traced_alg2_run(Scheduler& s,
                                        const std::vector<std::uint64_t>& ids) {
  auto net = PulseNetwork::ring(ids.size());
  for (NodeId v = 0; v < ids.size(); ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(ids[v]));
  }
  RunOptions opts;
  TraceRecorder trace;
  trace.attach(net, opts);
  net.run(s, opts);
  return trace.events();
}

/// The standard suite plus a replay whose tape fits neither ring of the
/// reset tests, so it diverges and counts divergences along the way, and
/// the fuzzer's two seeded schedulers: a biased walk and a mixture whose
/// parts (a walk and a LIFO) must rewind with it.
std::vector<NamedScheduler> reset_suite() {
  auto suite = standard_schedulers(3);
  suite.push_back(NamedScheduler{
      "replay", std::make_unique<ReplayScheduler>(
                    std::vector<std::size_t>{0, 3, 1, 7, 2, 9, 9, 4})});
  const WalkScheduler::Profile walk{.base = 2, .lifo = 3, .stick = 5};
  suite.push_back(
      NamedScheduler{"walk", std::make_unique<WalkScheduler>(5, walk)});
  std::vector<std::unique_ptr<Scheduler>> parts;
  parts.push_back(std::make_unique<WalkScheduler>(6, walk));
  parts.push_back(std::make_unique<GlobalLifoScheduler>());
  suite.push_back(NamedScheduler{
      "mix", std::make_unique<MixScheduler>(7, std::move(parts))});
  return suite;
}

std::size_t divergences_of(const Scheduler& s) {
  const auto* replay = dynamic_cast<const ReplayScheduler*>(&s);
  return replay != nullptr ? replay->divergences() : 0;
}

TEST(Schedulers, ResetMakesRerunsByteIdentical) {
  // Run, reset, run again on the SAME scheduler instance: the two traces
  // must be byte-identical for every adversary in the standard suite.
  const std::vector<std::uint64_t> ids{4, 9, 2, 7, 5};
  for (auto& entry : reset_suite()) {
    const auto first = traced_alg2_run(*entry.scheduler, ids);
    const std::size_t first_divergences = divergences_of(*entry.scheduler);
    ASSERT_FALSE(first.empty()) << entry.name;
    entry.scheduler->reset();
    const auto second = traced_alg2_run(*entry.scheduler, ids);
    EXPECT_EQ(first, second) << entry.name;
    EXPECT_EQ(first_divergences, divergences_of(*entry.scheduler))
        << entry.name;
  }
}

TEST(Schedulers, ResetRestoresPristineStateAfterUnrelatedRun) {
  // Stronger than rerun-equality: pollute a scheduler's internal state with
  // a run over a DIFFERENT topology, reset, and demand the trace of a
  // pristine twin. Catches resets that only rewind part of the state (e.g.
  // a reseeded RNG but a stale round-robin cursor, or a rewound replay
  // tape that still carries the previous run's divergence count).
  const std::vector<std::uint64_t> ids{4, 9, 2, 7, 5};
  auto pristine = reset_suite();
  auto reused = reset_suite();
  ASSERT_EQ(pristine.size(), reused.size());
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    ASSERT_EQ(pristine[i].name, reused[i].name);
    {
      // Unrelated polluting run: stabilizing Alg 1 on a smaller ring.
      auto net = PulseNetwork::ring(3);
      std::uint64_t small[3] = {5, 1, 3};
      for (NodeId v = 0; v < 3; ++v) {
        net.set_automaton(v, std::make_unique<co::Alg1Stabilizing>(small[v]));
      }
      RunOptions opts;
      net.run(*reused[i].scheduler, opts);
    }
    reused[i].scheduler->reset();
    EXPECT_EQ(traced_alg2_run(*pristine[i].scheduler, ids),
              traced_alg2_run(*reused[i].scheduler, ids))
        << reused[i].name;
    EXPECT_EQ(divergences_of(*pristine[i].scheduler),
              divergences_of(*reused[i].scheduler))
        << reused[i].name;
  }
}

TEST(Schedulers, RecorderResetClearsTape) {
  GlobalFifoScheduler fifo;
  RecordingScheduler recorder(fifo);
  co::elect_oriented_stabilizing({2, 4}, recorder);
  EXPECT_FALSE(recorder.tape().empty());
  recorder.reset();
  EXPECT_TRUE(recorder.tape().empty());
}

// ---------------------------------------------------------------------------
// The incremental protocol. Driven directly, GlobalFifo and Random pick from
// their own head index; wrapped in test::ViewPathScheduler they take the
// view path. Both must be the same run: the same tape, the same trace and
// the same network counters.
// ---------------------------------------------------------------------------

using Alg = test::RingAlg;
using test::make_ring;

struct Observed {
  std::vector<std::size_t> tape;
  std::vector<TraceEvent> trace;
  PulseNetwork::Counters counters;
  bool quiescent = false;
};

/// Runs `net` under `s`, recorded and traced.
Observed observe(PulseNetwork& net, Scheduler& s, RunOptions opts = {}) {
  TraceRecorder trace;
  trace.attach(net, opts);
  RecordingScheduler recording(s);
  const RunReport report = net.run(recording, opts);
  net.set_send_observer({});  // the recorder dies with this frame
  return {recording.tape(), trace.events(), net.counters(), report.quiescent};
}

Observed observe(Alg alg, const std::vector<std::uint64_t>& ids, Scheduler& s,
                 RunOptions opts = {}) {
  auto net = make_ring(alg, ids);
  return observe(net, s, opts);
}

void expect_same_run(const Observed& indexed, const Observed& views,
                     const std::string& label) {
  EXPECT_FALSE(indexed.tape.empty()) << label;
  EXPECT_EQ(indexed.tape, views.tape) << label;
  EXPECT_EQ(indexed.trace, views.trace) << label;
  EXPECT_TRUE(indexed.counters == views.counters) << label;
  EXPECT_EQ(indexed.quiescent, views.quiescent) << label;
}

TEST(IncrementalProtocol, OnlyIndexedSchedulersOptIn) {
  for (auto& s : test::indexed_schedulers(1)) {
    EXPECT_TRUE(s->begin_index(4)) << s->name();
    RecordingScheduler recording(*s);
    EXPECT_TRUE(recording.begin_index(4)) << s->name();
    test::ViewPathScheduler views(*s);
    EXPECT_FALSE(views.begin_index(4)) << s->name();
  }
  GlobalLifoScheduler lifo;
  EXPECT_FALSE(lifo.begin_index(4));
  EXPECT_THROW(lifo.pick_indexed({0}), util::ContractViolation);
}

TEST(IncrementalProtocol, IndexedAndViewPathRunsAreIdentical) {
  for (const Alg alg : {Alg::alg1, Alg::alg2, Alg::alg3}) {
    for (const std::size_t n : {1u, 2u, 3u, 8u, 64u}) {
      const auto ids = util::shuffled(util::dense_ids(n), n);
      for (const bool interleave : {false, true}) {
        RunOptions opts;
        opts.interleave_starts = interleave;
        opts.interleave_seed = 7 + n;
        auto direct = test::indexed_schedulers(n);
        auto reference = test::indexed_schedulers(n);
        for (std::size_t k = 0; k < direct.size(); ++k) {
          test::ViewPathScheduler views(*reference[k]);
          expect_same_run(observe(alg, ids, *direct[k], opts),
                          observe(alg, ids, views, opts),
                          direct[k]->name() + " alg" +
                              std::to_string(static_cast<int>(alg) + 1) +
                              " n=" + std::to_string(n) +
                              (interleave ? " interleaved" : ""));
        }
      }
    }
  }
}

TEST(IncrementalProtocol, IndexIsRebuiltAtEveryRunWithoutReset) {
  // One instance per path drives three runs back to back with no reset():
  // an election that starts with pulses already on two channels and is cut
  // off by the event limit (busy channels left in the index), a larger
  // ring, then a smaller one. Each run must rebuild the index from the
  // network it is given.
  RunOptions cut;
  cut.max_events = 40;
  auto direct = test::indexed_schedulers(5);
  auto reference = test::indexed_schedulers(5);
  for (std::size_t k = 0; k < direct.size(); ++k) {
    test::ViewPathScheduler views(*reference[k]);
    const std::string name = direct[k]->name();
    auto indexed_net = make_ring(Alg::alg2, {3, 8, 1, 6});
    auto views_net = make_ring(Alg::alg2, {3, 8, 1, 6});
    for (PulseNetwork* net : {&indexed_net, &views_net}) {
      net->inject_fault(1);
      net->inject_fault(1);
      net->inject_fault(6);
    }
    expect_same_run(observe(indexed_net, *direct[k], cut),
                    observe(views_net, views, cut), name + " preseeded, cut");
    EXPECT_FALSE(indexed_net.pending_channels().empty()) << name;
    expect_same_run(observe(Alg::alg2, util::dense_ids(12), *direct[k]),
                    observe(Alg::alg2, util::dense_ids(12), views),
                    name + " larger");
    expect_same_run(observe(Alg::alg3, {2, 5, 4}, *direct[k]),
                    observe(Alg::alg3, {2, 5, 4}, views), name + " smaller");
  }
}

/// Takes the incremental protocol through GlobalFifo and counts the head
/// changes the runner reports.
class HeadCounter final : public Scheduler {
 public:
  std::size_t pick(const std::vector<ChannelView>& p) override {
    return fifo_.pick(p);
  }
  std::string name() const override { return "head-counter"; }
  bool begin_index(std::size_t channels) override {
    return fifo_.begin_index(channels);
  }
  void head_changed(const ChannelView& head) override {
    ++heads;
    fifo_.head_changed(head);
  }
  std::size_t pick_indexed(const std::vector<std::size_t>& busy) override {
    return fifo_.pick_indexed(busy);
  }
  std::uint64_t heads = 0;

 private:
  GlobalFifoScheduler fifo_;
};

TEST(IncrementalProtocol, ExceptionMidRunLeavesIndexingMode) {
  auto net = PulseNetwork::ring(4);
  for (NodeId v = 0; v < 4; ++v) {
    net.set_automaton(v, std::make_unique<co::Alg2Terminating>(v + 3));
  }
  HeadCounter counter;
  RunOptions opts;
  std::uint64_t events = 0;
  opts.on_event = [&events](PulseNetwork&) {
    if (++events == 9) throw util::ContractViolation("planted");
  };
  EXPECT_THROW(net.run(counter, opts), util::ContractViolation);
  const std::uint64_t reported = counter.heads;
  EXPECT_GT(reported, 0u);
  ASSERT_FALSE(net.pending_channels().empty());
  // A head change after the run must reach no scheduler.
  net.drop_fault(net.pending_channels().front());
  net.inject_fault(0);
  EXPECT_EQ(counter.heads, reported);
}

// ---------------------------------------------------------------------------
// GlobalFifo's head window against its own view path, driven straight
// through the protocol by streams of heads that no election produces.
// ---------------------------------------------------------------------------

/// Channels as queues of send seqs, with the network's head rules: a send
/// or a delivery reports the head it changes, a duplicate queues its copy
/// behind the head and reports nothing. Every delivery asks pick_indexed
/// and checks it against pick(views) over the same heads.
class HeadStream {
 public:
  HeadStream(std::size_t channels, std::uint64_t first_seq)
      : queues_(channels), next_seq_(first_seq) {
    restart();
  }

  /// A new run on the same channels: begin_index, then every busy head.
  void restart() {
    rebuilds_ += fifo_.rebuilds();
    EXPECT_TRUE(fifo_.begin_index(queues_.size()));
    for (std::size_t c = 0; c < queues_.size(); ++c) {
      if (!queues_[c].empty()) report(c);
    }
  }

  void send(std::size_t c) {
    queues_[c].push_back(next_seq_++);
    if (queues_[c].size() == 1) report(c);
  }

  /// The next send gets a seq `gap` further on, as if others went between.
  void skip(std::uint64_t gap) { next_seq_ += gap; }

  void duplicate(std::size_t c) {
    auto& q = queues_[c];
    q.insert(q.begin() + 1, next_seq_++);
  }

  void drop(std::size_t c) {
    queues_[c].pop_front();
    report(c);
  }

  /// One delivery: false once the picks disagree.
  bool deliver() {
    std::vector<std::size_t> busy;
    std::vector<ChannelView> views;
    for (std::size_t c = 0; c < queues_.size(); ++c) {
      if (queues_[c].empty()) continue;
      busy.push_back(c);
      views.push_back(view_of(c));
    }
    if (busy.empty()) return true;
    const std::size_t indexed = fifo_.pick_indexed(busy);
    const std::size_t expected = GlobalFifoScheduler().pick(views);
    EXPECT_EQ(indexed, expected) << "pick " << picks_;
    ++picks_;
    if (indexed != expected) return false;
    drop(indexed);
    return true;
  }

  bool busy(std::size_t c) const { return !queues_[c].empty(); }
  bool idle() const {
    return std::all_of(queues_.begin(), queues_.end(),
                       [](const auto& q) { return q.empty(); });
  }
  std::uint64_t picks() const { return picks_; }
  std::uint64_t rebuilds() const { return rebuilds_ + fifo_.rebuilds(); }

 private:
  ChannelView view_of(std::size_t c) const {
    const auto& q = queues_[c];
    return ChannelView{c, q.size(), q.empty() ? 0 : q.front(), 0,
                       Direction::cw};
  }
  void report(std::size_t c) { fifo_.head_changed(view_of(c)); }

  GlobalFifoScheduler fifo_;
  std::vector<std::deque<std::uint64_t>> queues_;
  std::uint64_t next_seq_;
  std::uint64_t picks_ = 0;
  std::uint64_t rebuilds_ = 0;
};

TEST(GlobalFifoWindow, MatchesTheViewPathOnRandomHeadStreams) {
  std::uint64_t picks = 0, rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    util::Xoshiro256StarStar rng(seed);
    // 1 to 40 channels: the window's 64 slots are at most a few heads wide
    // or many times more.
    const std::size_t channels = 1 + rng.below(40);
    const std::uint64_t first_seq =
        rng.bernoulli(0.5) ? 0 : rng.below(std::uint64_t{1} << 40);
    HeadStream stream(channels, first_seq);
    for (int step = 0; step < 600; ++step) {
      const std::size_t c = rng.below(channels);
      const std::uint64_t op = rng.below(100);
      if (op < 40) {
        stream.send(c);
      } else if (op < 80) {
        ASSERT_TRUE(stream.deliver()) << "seed " << seed;
      } else if (op < 88) {
        if (stream.busy(c)) stream.duplicate(c);  // older pulses fall behind
      } else if (op < 93) {
        if (stream.busy(c)) stream.drop(c);
      } else if (op < 97) {
        stream.skip(rng.below(1000));  // far past the window
      } else if (op < 99) {
        stream.restart();  // a second run: seqs do not start at 0
      } else {
        // Drain, then refill the emptied window at a high seq.
        while (!stream.idle()) ASSERT_TRUE(stream.deliver()) << "seed " << seed;
        stream.skip(rng.below(std::uint64_t{1} << 30));
      }
    }
    while (!stream.idle()) ASSERT_TRUE(stream.deliver()) << "seed " << seed;
    picks += stream.picks();
    rebuilds += stream.rebuilds();
  }
  EXPECT_GT(picks, 300'000u);
  EXPECT_GT(rebuilds, 1'000u);  // the out-of-window branches ran
}

TEST(GlobalFifoWindow, HeadBelowTheBaseRebuilds) {
  // Channel 0 holds seqs 0 and 2. A duplicate queues its copy, seq 3,
  // behind the head, and channel 1 holds 1 and 4. Once 0, 1 and 3 have
  // delivered, seq 2 is a head below the base while 4 is still live.
  HeadStream stream(2, 0);
  stream.send(0);
  stream.send(1);
  stream.send(0);
  stream.duplicate(0);
  stream.send(1);
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(stream.deliver());
  EXPECT_EQ(stream.rebuilds(), 1u);
  for (int k = 0; k < 2; ++k) ASSERT_TRUE(stream.deliver());
  EXPECT_TRUE(stream.idle());
}

TEST(GlobalFifoWindow, HeadFarPastTheWindowGrowsIt) {
  HeadStream stream(2, 0);
  stream.send(0);
  stream.skip(1'000'000);  // far past the 64-slot window
  stream.send(1);
  EXPECT_EQ(stream.rebuilds(), 1u);
  stream.send(0);
  stream.send(1);
  for (int k = 0; k < 4; ++k) ASSERT_TRUE(stream.deliver());
  EXPECT_EQ(stream.rebuilds(), 1u);  // the grown window covered the rest
  EXPECT_TRUE(stream.idle());
}

TEST(GlobalFifoWindow, EmptiedWindowRefillsAtAHighSeqWithoutRebuild) {
  HeadStream stream(3, 1'000'000'000'000);  // not starting at 0 either
  stream.send(2);
  ASSERT_TRUE(stream.deliver());
  stream.skip(std::uint64_t{1} << 40);
  stream.send(1);
  stream.send(0);
  for (int k = 0; k < 2; ++k) ASSERT_TRUE(stream.deliver());
  EXPECT_EQ(stream.rebuilds(), 0u);
}

TEST(GlobalFifoWindow, FaultFreeElectionsNeverRebuild) {
  // Delivery in send order keeps every head inside the window.
  for (const std::size_t n : {64u, 1024u}) {
    auto net = make_ring(Alg::alg2, util::shuffled(util::dense_ids(n), 7));
    GlobalFifoScheduler fifo;
    ASSERT_TRUE(net.run(fifo).quiescent);
    EXPECT_EQ(fifo.rebuilds(), 0u) << "n=" << n;
  }
}

}  // namespace
}  // namespace colex::sim
