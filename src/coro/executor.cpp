#include "coro/executor.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

namespace colex::coro {

thread_local Executor::ExecContext* Executor::current_ = nullptr;

Executor::Executor(std::size_t n, const std::vector<bool>& port_flips,
                   ExecutorOptions options)
    : nodes_(wire_ring(n, port_flips)),
      options_(options),
      worker_count_(std::max<std::size_t>(1, options.workers)),
      stats_(worker_count_ + 1) {
  // Each deque is sized for the worst case (every node simultaneously
  // ready in one deque), which removes overflow handling entirely: 4 bytes
  // per slot, so even n=10^6 with 4 workers is 16MB of deque.
  deques_.reserve(worker_count_ + 1);
  yields_.reserve(worker_count_ + 1);
  for (std::size_t w = 0; w <= worker_count_; ++w) {
    deques_.push_back(std::make_unique<WorkDeque>(n));
    yields_.push_back(std::make_unique<YieldQueue>(n));
  }
  if (options_.metrics != nullptr) {
    // Arm the flight recorder while still single-threaded: ring creation is
    // setup-only, and each execution context then owns exactly one ring.
    flight_ = std::make_unique<obs::FlightRecorder>();
    flight_rings_.reserve(worker_count_ + 1);
    for (std::size_t w = 0; w < worker_count_; ++w) {
      flight_rings_.push_back(&flight_->ring("worker." + std::to_string(w)));
    }
    flight_rings_.push_back(&flight_->ring("driver"));
  }
}

void Executor::wake_one_worker() {
  // Empty-critical-section handshake: park_worker evaluates its predicate
  // under park_mutex_, so locking (even briefly) after the ready_count_
  // bump guarantees the parked worker either saw the bump pre-sleep or is
  // already waiting and receives this notify — never the gap between.
  // colex-lint: allow(T002) empty critical section: the guard is the wake
  // handshake itself and is never held across a park or any other wait
  { std::lock_guard<std::mutex> lock(park_mutex_); }
  park_cv_.notify_one();
}

void Executor::signal_stop() {
  stop_.store(true, std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lock(park_mutex_); }
  park_cv_.notify_all();
  done_cv_.notify_all();
}

void Executor::run_node(ExecContext& ctx, std::uint32_t v) {
  auto& nd = nodes_[v];
  nd.state.store(NodeState::running, std::memory_order_seq_cst);
  ctx.suspended = false;
  nd.handle.resume();
  bump(ctx.stats->resumes);
  // Suspended in wait_any: the node published PARKED or READY, so another
  // worker may already be resuming (or have finished) the frame.
  if (ctx.suspended) return;
  COLEX_ASSERT(nd.handle.done());
  settle_sends(ctx, v);
  nd.state.store(NodeState::done, std::memory_order_seq_cst);
  if (done_count_.fetch_add(1, std::memory_order_seq_cst) + 1 ==
      nodes_.size()) {
    flight_record(ctx.index, "all-done", nodes_.size());
    signal_stop();  // natural termination: every node returned (Alg 2)
  }
}

void Executor::park_worker(ExecContext& ctx) {
  std::unique_lock<std::mutex> lock(park_mutex_);
  idle_workers_.fetch_add(1, std::memory_order_seq_cst);
  if (ready_count_.load(std::memory_order_seq_cst) != 0 ||
      stop_.load(std::memory_order_seq_cst)) {
    idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
    return;  // work appeared (or stop) between our last scan and the lock
  }
  if (idle_workers_.load(std::memory_order_seq_cst) == worker_count_) {
    // Last worker in: quiescence detection. Every other worker's counter
    // writes are ordered before its idle_workers_ RMW, and that RMW chain
    // is ordered before ours (release sequence on idle_workers_), so the
    // sums below are exact. ready_count_ == 0 (checked above, and no
    // worker is running to push) means every node is PARKED or DONE;
    // sent == consumed(+swallowed) then proves no pulse is in flight or
    // pending — the fabric can never move again.
    if (total_sent() == total_consumed()) {
      quiescent_.store(true, std::memory_order_seq_cst);
      idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
      lock.unlock();
      flight_record(ctx.index, "quiescent", total_sent(),
                    done_count_.load(std::memory_order_seq_cst));
      signal_stop();
      return;
    }
    // Counters disagree with an all-parked fabric: pulses bound for nodes
    // that terminated mid-delivery race (Alg 2 tail) or a genuine stall —
    // the done==n path or the watchdog decides; we just go to sleep.
  }
  bump(ctx.stats->parks);
  flight_record(ctx.index, "park",
                idle_workers_.load(std::memory_order_seq_cst),
                done_count_.load(std::memory_order_seq_cst));
  park_cv_.wait(lock, [this] {
    return ready_count_.load(std::memory_order_seq_cst) != 0 ||
           stop_.load(std::memory_order_seq_cst);
  });
  idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
}

void Executor::worker_main(std::size_t w) {
  ExecContext ctx{&stats_[w], deques_[w].get(), yields_[w].get(), w};
  current_ = &ctx;
  WorkDeque& own = *deques_[w];
  YieldQueue& yielded = *yields_[w];
  std::uint32_t v = 0;
  while (!stop_.load(std::memory_order_seq_cst)) {
    if (own.pop(v)) {
      ready_count_.fetch_sub(1, std::memory_order_seq_cst);
      run_node(ctx, v);
      continue;
    }
    // Wakeups first (LIFO, cache-warm), then the yield FIFO: a yielded node
    // reruns only after everything it was waiting behind has had a turn.
    if (yielded.pop(v)) {
      ready_count_.fetch_sub(1, std::memory_order_seq_cst);
      run_node(ctx, v);
      continue;
    }
    bool stole = false;
    // Deterministic round-robin victim order (no randomness: colex-lint
    // D001, and workers=1 runs must be bit-reproducible).
    for (std::size_t k = 1; k < worker_count_; ++k) {
      if (deques_[(w + k) % worker_count_]->steal(v)) {
        ready_count_.fetch_sub(1, std::memory_order_seq_cst);
        bump(ctx.stats->steals);
        run_node(ctx, v);
        stole = true;
        break;
      }
    }
    if (stole) continue;
    park_worker(ctx);
  }
  current_ = nullptr;
}

void Executor::drain() {
  // Post-join, single-threaded: with stop_ set, wait_any() can no longer
  // suspend (await_ready short-circuits), so one resume runs any
  // unfinished coroutine to its co_return — collecting the stopped=true
  // outcomes exactly as a blocking transport's stopped wait does. Sends
  // performed on the way out land in the driver's own context.
  ExecContext ctx{&stats_[worker_count_], deques_[worker_count_].get(),
                  yields_[worker_count_].get(), worker_count_};
  current_ = &ctx;
  std::uint64_t drained = 0;
  for (std::uint32_t v = 0; v < nodes_.size(); ++v) {
    auto& nd = nodes_[v];
    if (nd.handle.done()) continue;
    nd.state.store(NodeState::running, std::memory_order_seq_cst);
    nd.handle.resume();
    COLEX_ASSERT(nd.handle.done());
    settle_sends(ctx, v);
    nd.state.store(NodeState::done, std::memory_order_seq_cst);
    done_count_.fetch_add(1, std::memory_order_seq_cst);
    ++drained;
  }
  flight_record(worker_count_, "drain", drained);
  current_ = nullptr;
}

void Executor::record_progress_sample(double elapsed_ms) {
  const std::uint64_t consumed = total_consumed();
  std::ostringstream os;
  os << "t=" << static_cast<std::uint64_t>(elapsed_ms)
     << "ms sent=" << total_sent() << " consumed=" << consumed
     << " ready=" << ready_count_.load()
     << " idle=" << idle_workers_.load() << " done=" << done_count_.load();
  // Consumed moves on every pulse absorbed anywhere: flat tail == stall.
  progress_.record(consumed, os.str());
  flight_record(worker_count_, "progress", consumed,
                ready_count_.load(std::memory_order_seq_cst));
}

bool Executor::run() {
  const std::size_t n = nodes_.size();
  for (std::uint32_t v = 0; v < n; ++v) {
    COLEX_EXPECTS(nodes_[v].handle);  // every node bound
    deques_[v % worker_count_]->push(v);
  }
  ready_count_.store(n, std::memory_order_seq_cst);

  std::vector<std::thread> threads;
  threads.reserve(worker_count_);
  for (std::size_t w = 0; w < worker_count_; ++w) {
    threads.emplace_back([this, w] { worker_main(w); });
  }

  // Watchdog + progress history, on a fixed cadence:
  // cover the timeout with kProgressSamples samples, floor 50ms.
  const auto started = std::chrono::steady_clock::now();
  const auto deadline =
      started + std::chrono::milliseconds(options_.timeout_ms);
  const auto sample_every = std::chrono::milliseconds(
      std::max<std::uint64_t>(options_.timeout_ms / kProgressSamples, 50));
  auto next_sample = started;
  {
    std::unique_lock<std::mutex> lock(park_mutex_);
    while (!stop_.load(std::memory_order_seq_cst)) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_sample) {
        record_progress_sample(
            std::chrono::duration<double, std::milli>(now - started).count());
        next_sample = now + sample_every;
      }
      if (now > deadline) {
        timed_out_ = true;
        break;
      }
      done_cv_.wait_until(lock, std::min(next_sample, deadline));
    }
  }
  if (timed_out_) {
    flight_record(worker_count_, "timeout", options_.timeout_ms,
                  total_consumed());
    signal_stop();
  }
  for (auto& t : threads) t.join();
  if (timed_out_) stall_dump_ = dump();  // snapshot before the drain mutates
  drain();

  if (options_.metrics != nullptr) {
    // Per-worker registries, merged post-join (obs ownership contract).
    std::vector<obs::Registry> regs(worker_count_ + 1);
    for (std::size_t w = 0; w <= worker_count_; ++w) {
      const auto& s = stats_[w];
      obs::Registry& r = regs[w];
      const bool driver = w == worker_count_;
      const std::string who =
          driver ? std::string("drain") : "worker." + std::to_string(w);
      r.counter("coro.sent").inc(s.sent.load());
      r.counter("coro.consumed").inc(s.consumed.load());
      r.counter("coro.swallowed").inc(s.swallowed.load());
      r.counter("coro.resumes").inc(s.resumes.load());
      r.counter("coro.steals").inc(s.steals.load());
      r.counter("coro.parks").inc(s.parks.load());
      r.counter("coro.wakeups").inc(s.wakeups.load());
      r.counter("coro.batched_wakeups").inc(s.batched.load());
      r.counter("coro.deferred").inc(s.deferred.load());
      r.counter("coro.yields").inc(s.yields.load());
      r.counter("coro." + who + ".resumes").inc(s.resumes.load());
      r.counter("coro." + who + ".steals").inc(s.steals.load());
      r.counter("coro." + who + ".parks").inc(s.parks.load());
    }
    publish_metrics(regs);
  }
  return !timed_out_;
}

void Executor::publish_metrics(
    const std::vector<obs::Registry>& worker_registries) {
  obs::Registry& reg = *options_.metrics;
  for (const auto& r : worker_registries) reg.merge(r);
  reg.counter("coro.nodes").inc(nodes_.size());
  reg.counter("coro.workers").inc(worker_count_);
  reg.counter("coro.done").inc(done_count_.load());
  if (quiescent_.load()) reg.counter("coro.quiescent").inc();
  if (timed_out_) reg.counter("coro.timed_out").inc();
  // Final per-phase node distribution (where every node ended up). During
  // a watchdog dump the same scan runs live in dump().
  std::size_t by_phase[sim::kPhaseCount] = {};
  for (const auto& nd : nodes_) {
    const std::size_t i = nd.phase.load(std::memory_order_relaxed);
    ++by_phase[i < sim::kPhaseCount ? i : 0];
  }
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    reg.gauge(obs::labeled("coro.phase_nodes", "phase", sim::phase_name(i)))
        .set(static_cast<double>(by_phase[i]));
  }
}

ExecStats Executor::stats() const {
  ExecStats out;
  out.sent = sum(&WorkerStats::sent);
  out.consumed = sum(&WorkerStats::consumed);
  out.swallowed = sum(&WorkerStats::swallowed);
  out.resumes = sum(&WorkerStats::resumes);
  out.steals = sum(&WorkerStats::steals);
  out.parks = sum(&WorkerStats::parks);
  out.wakeups = sum(&WorkerStats::wakeups);
  out.batched = sum(&WorkerStats::batched);
  out.deferred = sum(&WorkerStats::deferred);
  out.yields = sum(&WorkerStats::yields);
  out.workers = worker_count_;
  return out;
}

namespace {

/// Stall-dump spelling of a node state; a parked node lists the ports it
/// waits on, e.g. "parked[p0]".
const char* state_name(NodeState s) {
  switch (s) {
    case NodeState::ready: return "ready";
    case NodeState::running: return "running";
    case NodeState::done: return "done";
    case NodeState::parked_p0: return "parked[p0]";
    case NodeState::parked_p1: return "parked[p1]";
    case NodeState::parked: return "parked[p0,p1]";
  }
  return "?";
}

}  // namespace

std::string Executor::dump() const {
  std::ostringstream os;
  const ExecStats s = stats();
  os << "coro-executor state: n=" << nodes_.size()
     << " workers=" << worker_count_ << " sent=" << s.sent
     << " consumed=" << s.consumed << " swallowed=" << s.swallowed
     << " ready=" << ready_count_.load() << " idle=" << idle_workers_.load()
     << " done=" << done_count_.load() << " resumes=" << s.resumes
     << " steals=" << s.steals << " parks=" << s.parks
     << " wakeups=" << s.wakeups << " batched=" << s.batched
     << " deferred=" << s.deferred << " yields=" << s.yields << "\n";
  // Per-node listing capped to the anomalies: at n=10^6 a full dump is
  // useless; what the post-mortem needs is which nodes still hold pulses
  // or are not parked.
  constexpr std::size_t kMaxListed = 32;
  std::size_t anomalies = 0;
  for (std::uint32_t v = 0; v < nodes_.size(); ++v) {
    const auto& nd = nodes_[v];
    const std::uint64_t p0 = nd.in[0].pending();
    const std::uint64_t p1 = nd.in[1].pending();
    const NodeState st = nd.state.load();
    if (p0 == 0 && p1 == 0 && is_parked(st)) continue;
    ++anomalies;
    if (anomalies > kMaxListed) continue;
    const std::size_t ph = nd.phase.load(std::memory_order_relaxed);
    os << "  node " << v << ": pending[p0]=" << p0 << " pending[p1]=" << p1
       << " state=" << state_name(st)
       << " phase=" << sim::phase_name(ph < sim::kPhaseCount ? ph : 0)
       << "\n";
  }
  if (anomalies > kMaxListed) {
    os << "  ... " << (anomalies - kMaxListed)
       << " more nodes with pulses pending or not parked\n";
  }
  // Phase distribution: where the ring's nodes are in the algorithm right
  // now — the first thing a stall post-mortem needs.
  std::size_t by_phase[sim::kPhaseCount] = {};
  for (const auto& nd : nodes_) {
    const std::size_t i = nd.phase.load(std::memory_order_relaxed);
    ++by_phase[i < sim::kPhaseCount ? i : 0];
  }
  os << "  phases:";
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    if (by_phase[i] != 0) {
      os << " " << sim::phase_name(i) << "=" << by_phase[i];
    }
  }
  os << "\n";
  const std::vector<std::string> history = progress_.history();
  if (!history.empty()) {
    os << "  progress history (last " << history.size() << " samples):\n";
    for (const auto& sample : history) os << "    " << sample << "\n";
  }
  if (flight_ != nullptr) os << "  " << flight_->render_tail(32);
  if (options_.metrics != nullptr) {
    os << "  metrics: " << options_.metrics->to_json() << "\n";
  }
  return os.str();
}

}  // namespace colex::coro
