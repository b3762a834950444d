#include "coro/faults.hpp"

#include <algorithm>
#include <coroutine>
#include <optional>
#include <sstream>
#include <utility>

#include "util/contracts.hpp"

namespace colex::coro {

// The executor's fault-layer operations (coro/executor.hpp) are defined
// here, beside their only caller, so executor.cpp — the election path —
// compiles to the same object code with or without them.

void Executor::settle_running(std::uint32_t v) {
  if (current_ != nullptr) settle_sends(*current_, v);
}

std::uint64_t Executor::drop_pending(std::uint32_t v) {
  COLEX_EXPECTS(worker_count_ == 1 && current_ != nullptr);
  auto& nd = nodes_[v];
  std::uint64_t k = 0;
  for (auto& ch : nd.in) {
    const std::uint64_t produced = ch.produced.load(std::memory_order_relaxed);
    k += produced - ch.consumed.load(std::memory_order_relaxed);
    ch.consumed.store(produced, std::memory_order_relaxed);
  }
  if (nd.state.load(std::memory_order_relaxed) == NodeState::done) return 0;
  bump(current_->stats->consumed, k);
  return k;
}

void Executor::inject_pulse(std::uint32_t from, sim::Port p) {
  COLEX_EXPECTS(worker_count_ == 1);
  // Before run() there is no running node: book on the post-join drain's
  // slot, which nothing else uses.
  ExecContext drain_slot{&stats_[worker_count_], deques_[worker_count_].get(),
                         yields_[worker_count_].get(), worker_count_};
  const bool before_run = current_ == nullptr;
  if (before_run) current_ = &drain_slot;
  send_pulse(from, p);
  settle_sends(*current_, from);
  if (before_run) current_ = nullptr;
}

void Executor::rebind(std::uint32_t v, std::coroutine_handle<> h) {
  COLEX_EXPECTS(worker_count_ == 1 && current_ != nullptr);
  auto& nd = nodes_[v];
  nd.handle = h;
  nd.polled_empty = 0;
  nd.phase.store(0, std::memory_order_relaxed);
  const NodeState s = nd.state.load(std::memory_order_relaxed);
  if (s == NodeState::ready) return;  // already queued: runs h when popped
  if (s == NodeState::done) done_count_.fetch_sub(1, std::memory_order_seq_cst);
  if (s == NodeState::running) current_->suspended = true;
  nd.state.store(NodeState::ready, std::memory_order_seq_cst);
  ready_count_.fetch_add(1, std::memory_order_seq_cst);
  current_->deque->push(v);
}

namespace {

class FaultRun {
 public:
  FaultRun(const std::vector<std::uint64_t>& ids,
           const std::vector<bool>& port_flips, rt::ThreadAlg alg,
           const sim::FaultPlan& plan, const CoroRunOptions& options)
      : ids_(ids),
        alg_(alg),
        plan_(plan),
        wiring_(sim::PulseNetwork::ring(ids.size(), port_flips)),
        ex_(ids.size(), port_flips,
            ExecutorOptions{1, options.timeout_ms, options.metrics}),
        epoch_(ids.size(), 0),
        restarts_(ids.size(), 0),
        crashed_(ids.size(), 0),
        started_(ids.size(), 0) {
    tasks_.reserve(ids.size());
    for (std::uint32_t v = 0; v < ids.size(); ++v) {
      tasks_.push_back(spawn(v));
      ex_.bind(v, tasks_.back().handle());
    }
  }

  FaultRunResult run();

  // --- hooks for FaultyIo ------------------------------------------------
  bool dead(std::uint32_t v, std::uint64_t epoch) const {
    return epoch_[v] != epoch;
  }
  void started(std::uint32_t v) {
    if (started_[v] != 0) return;
    started_[v] = 1;
    event(v);
  }
  void delivered(std::uint32_t v) { event(v); }
  /// A dead incarnation still running when its node was recovered.
  bool restart_due(std::uint32_t v) const {
    return crashed_[v] == 0 && !ex_.stopping();
  }
  void restart(std::uint32_t v) {
    lost_ += ex_.drop_pending(v);
    ex_.rebind(v, tasks_[v].handle());
  }
  /// A dead incarnation unwinding: pulses that reached it since its crash
  /// die with it.
  void bury(std::uint32_t v) { lost_ += ex_.drop_pending(v); }

 private:
  rt::ElectionTask spawn(std::uint32_t v);

  /// Event `events_ + 1` completed inside node v's operation: fire what is
  /// due, after booking v's sends so far (a fault must see every receiver
  /// as those sends left it).
  void event(std::uint32_t v) {
    if (ex_.stopping()) return;  // the drain unwinds; nothing fires there
    ++events_;
    if (cursor_ < plan_.script.size() &&
        plan_.script[cursor_].at_event == events_) {
      ex_.settle_running(v);
      fire(v);
    }
  }

  void fire(std::optional<std::uint32_t> running) {
    while (cursor_ < plan_.script.size() &&
           plan_.script[cursor_].at_event <= events_) {
      const sim::ScriptedFault& f = plan_.script[cursor_++];
      const auto v = static_cast<std::uint32_t>(f.node);
      if (f.kind == sim::FaultKind::crash) {
        crash(v, running);
      } else if (f.kind == sim::FaultKind::recover) {
        recover(v, running);
      } else {
        spurious(f.channel);
      }
    }
  }

  void crash(std::uint32_t v, std::optional<std::uint32_t> running) {
    if (started_[v] == 0 || crashed_[v] != 0 || tasks_[v].done()) return;
    crashed_[v] = 1;
    ++epoch_[v];
    lost_ += ex_.drop_pending(v);
    // A parked node must run once to unwind its dead incarnation; the
    // running node unwinds on its own.
    if (running != v) ex_.rebind(v, tasks_[v].handle());
    ++tallies_.crashes;
    record(sim::FaultKind::crash, sim::FaultRecord::kNoChannel, v);
  }

  void recover(std::uint32_t v, std::optional<std::uint32_t> running) {
    if (crashed_[v] == 0) return;
    crashed_[v] = 0;
    ++restarts_[v];
    graveyard_.push_back(std::move(tasks_[v]));
    tasks_[v] = spawn(v);
    // A dead incarnation still running (crashed in this same batch) hands
    // over at its next wait instead: its frame cannot be swapped mid-run.
    if (running != v) restart(v);
    ++tallies_.recoveries;
    record(sim::FaultKind::recover, sim::FaultRecord::kNoChannel, v);
  }

  void spurious(std::size_t channel) {
    const auto [node, port] = wiring_.channel_source(channel);
    ex_.inject_pulse(static_cast<std::uint32_t>(node), port);
    ++tallies_.spurious;
    record(sim::FaultKind::spurious, channel, node, port,
           wiring_.channel_direction(channel));
  }

  void record(sim::FaultKind kind, std::size_t channel, sim::NodeId node,
              sim::Port port = sim::Port::p0,
              sim::Direction dir = sim::Direction::cw) {
    records_.push_back(
        sim::FaultRecord{kind, events_, channel, node, port, dir});
  }

  const std::vector<std::uint64_t>& ids_;
  rt::ThreadAlg alg_;
  const sim::FaultPlan& plan_;
  sim::PulseNetwork wiring_;  // the simulator's channel numbering
  Executor ex_;
  std::vector<rt::ElectionTask> tasks_;      // each node's incarnation
  std::vector<rt::ElectionTask> graveyard_;  // replaced incarnations
  std::vector<std::uint64_t> epoch_;
  std::vector<std::uint64_t> restarts_;
  std::vector<char> crashed_;
  std::vector<char> started_;
  std::uint64_t events_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t lost_ = 0;
  sim::FaultTallies tallies_;
  std::vector<sim::FaultRecord> records_;
};

/// The fault layer's PulsePort: a CoroIo bound to one incarnation of its
/// node. A crash bumps the node's epoch, which kills every incarnation
/// minted before it: recv() fails, send() vanishes, and the next
/// wait_any() returns false, so the transcription unwinds the way a stop
/// unwinds it. The first operation of a node counts as its start.
class FaultyIo {
 public:
  FaultyIo(FaultRun& run, CoroIo io, std::uint32_t v, std::uint64_t epoch)
      : run_(&run), io_(io), v_(v), epoch_(epoch) {}

  bool recv(sim::Port p) {
    if (!live() || !io_.recv(p)) return false;
    run_->delivered(v_);
    return !dead();  // a pulse a crash interrupted dies with the node
  }
  void send(sim::Port p) {
    if (live()) io_.send(p);
  }
  void set_phase(sim::Phase p) {
    if (!dead()) io_.set_phase(p);
  }

  /// The executor's awaitable for a live incarnation. A dead one does not
  /// park: it returns false at once, or, when its node was recovered while
  /// it was still running, hands the node to the fresh incarnation.
  struct Awaiter {
    FaultyIo* io;
    Executor::WaitAnyAwaiter inner;

    bool await_ready() {
      if (io->dead()) return !io->run_->restart_due(io->v_);
      return inner.await_ready();
    }
    bool await_suspend(std::coroutine_handle<> h) {
      if (!io->dead()) return inner.await_suspend(h);
      io->run_->restart(io->v_);
      return true;
    }
    bool await_resume() {
      if (!io->dead()) return inner.await_resume();
      io->run_->bury(io->v_);
      return false;
    }
  };
  Awaiter wait_any() {
    live();
    return Awaiter{this, io_.wait_any()};
  }

 private:
  bool dead() const { return run_->dead(v_, epoch_); }
  bool live() {
    if (dead()) return false;
    run_->started(v_);
    return !dead();
  }

  FaultRun* run_;
  CoroIo io_;
  std::uint32_t v_;
  std::uint64_t epoch_;
};

static_assert(rt::PulsePort<FaultyIo>);

rt::ElectionTask FaultRun::spawn(std::uint32_t v) {
  return rt::spawn_alg(alg_, FaultyIo(*this, ex_.io(v), v, epoch_[v]),
                       ids_[v]);
}

FaultRunResult FaultRun::run() {
  for (const auto& [channel, count] : plan_.preseed_channels) {
    for (std::size_t i = 0; i < count; ++i) spurious(channel);
  }
  fire(std::nullopt);  // at_event == 0

  FaultRunResult result;
  result.completed = ex_.run();
  result.pulses = ex_.total_sent();
  result.stats = ex_.stats();
  result.tallies = tallies_;
  result.records = records_;
  result.lost = lost_;
  if (!result.completed) {
    std::ostringstream os;
    os << ex_.stall_dump() << "  faults: events=" << events_
       << " spurious=" << tallies_.spurious << " crashes=" << tallies_.crashes
       << " recoveries=" << tallies_.recoveries << " lost=" << lost_ << "\n";
    result.stall_dump = os.str();
  }

  result.outcomes.reserve(ids_.size());
  for (std::uint32_t v = 0; v < ids_.size(); ++v) {
    rt::BlockingOutcome out;
    if (crashed_[v] == 0 && tasks_[v].done()) {
      out = tasks_[v].outcome();  // rethrows algorithm errors
    } else {  // down at the end: its state died with it
      out.id = ids_[v];
      out.stopped = true;
    }
    out.restarts = restarts_[v];
    result.outcomes.push_back(out);
  }
  rt::tally_leaders(result);

  const auto max_at = static_cast<sim::NodeId>(
      std::max_element(ids_.begin(), ids_.end()) - ids_.begin());
  sim::RunReport report;
  report.quiescent = result.completed;
  report.hit_event_limit = !result.completed;
  const bool correct = result.completed && result.leader_count == 1 &&
                       result.leader == max_at;
  result.outcome =
      sim::classify_outcome(report, "", correct, &result.diagnosis);
  return result;
}

}  // namespace

FaultRunResult run_on_coro_with_faults(const std::vector<std::uint64_t>& ids,
                                       const std::vector<bool>& port_flips,
                                       rt::ThreadAlg alg,
                                       const sim::FaultPlan& plan,
                                       const CoroRunOptions& options) {
  COLEX_EXPECTS(!ids.empty());
  auto refuse_if = [](bool bad, const std::string& why) {
    if (bad) throw util::ContractViolation("fault run refused: " + why);
  };
  const std::string diag = plan.validate();
  refuse_if(!diag.empty(), "FaultPlan: " + diag);
  refuse_if(options.workers > 1,
            "W=" + std::to_string(options.workers) +
                " > 1; only a one-worker run replays from its plan");
  bool probabilities = plan.all_channels.active();
  for (const auto& [channel, profile] : plan.channel_overrides) {
    probabilities = probabilities || profile.active();
  }
  refuse_if(probabilities, "channel probabilities; scripted faults only");
  for (const sim::ScriptedFault& f : plan.script) {
    refuse_if(f.kind == sim::FaultKind::drop ||
                  f.kind == sim::FaultKind::duplicate,
              std::string(sim::to_string(f.kind)) +
                  "; an executor channel is a pulse count with no head to "
                  "take or copy");
    COLEX_EXPECTS(f.kind == sim::FaultKind::spurious
                      ? f.channel < 2 * ids.size()
                      : f.node < ids.size());
  }
  for (const auto& [channel, count] : plan.preseed_channels) {
    COLEX_EXPECTS(channel < 2 * ids.size());
  }
  FaultRun run(ids, port_flips, alg, plan, options);
  return run.run();
}

}  // namespace colex::coro
