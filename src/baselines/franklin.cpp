// Franklin (1982): bidirectional rounds. Each active node exchanges its ID
// with the nearest active node in both directions (passive nodes relay);
// only local maxima stay active, so the active set at least halves per
// round. The global maximum's ID eventually returns to it, making it leader.
// O(n log n) messages.
//
// Asynchrony note: neighbors can be one round ahead, so candidates are
// tagged with their round and buffered per direction until this node's
// current round is served. A node turning passive flushes its buffers in
// arrival order, preserving per-channel FIFO for the nodes beyond it.
#include <deque>
#include <memory>
#include <vector>

#include "baselines/run_ring.hpp"
#include "util/contracts.hpp"

namespace colex::baselines {
namespace {

class FranklinNode final : public BaselineNode {
 public:
  explicit FranklinNode(std::uint64_t id) : id_(id) {}

  void start(MsgContext& ctx) override { send_round(ctx); }

  void react(MsgContext& ctx) override {
    bool progress = true;
    while (progress && !terminated()) {
      progress = false;
      for (const sim::Port q : {sim::Port::p0, sim::Port::p1}) {
        auto m = ctx.recv(q);
        if (!m) continue;
        progress = true;
        handle(ctx, q, *m);
        if (terminated()) return;
      }
    }
  }

 private:
  void handle(MsgContext& ctx, sim::Port q, const Msg& m) {
    if (m.kind == Msg::Kind::announce) {
      on_announce(ctx, m);
      return;
    }
    COLEX_ASSERT(m.kind == Msg::Kind::candidate);
    if (is_leader_) return;  // draining while the announcement circulates
    if (!active_) {
      emit(ctx, sim::opposite(q), m);  // passive: relay
      return;
    }
    if (m.value == id_) {
      // Own ID traveled the whole ring: everyone else is passive.
      start_announce(ctx, id_);
      return;
    }
    buffer_[sim::index(q)].push_back(m);
    try_advance(ctx);
  }

  void try_advance(MsgContext& ctx) {
    auto& b0 = buffer_[0];
    auto& b1 = buffer_[1];
    if (b0.empty() || b1.empty()) return;
    COLEX_ASSERT(b0.front().phase == round_ && b1.front().phase == round_);
    const std::uint64_t a = b0.front().value;
    const std::uint64_t b = b1.front().value;
    b0.pop_front();
    b1.pop_front();
    if (a < id_ && b < id_) {
      ++round_;
      send_round(ctx);
      try_advance(ctx);  // both next-round candidates may already be queued
    } else {
      active_ = false;
      // Relay everything that was buffered for future rounds.
      for (const int side : {0, 1}) {
        for (const Msg& queued : buffer_[side]) {
          emit(ctx, sim::opposite(sim::port_from_index(side)), queued);
        }
        buffer_[side].clear();
      }
    }
  }

  void send_round(MsgContext& ctx) {
    Msg m;
    m.kind = Msg::Kind::candidate;
    m.value = id_;
    m.phase = round_;
    emit(ctx, sim::Port::p0, m);
    emit(ctx, sim::Port::p1, m);
  }

  std::uint64_t id_;
  std::uint32_t round_ = 0;
  bool active_ = true;
  std::deque<Msg> buffer_[2];
};

}  // namespace

BaselineResult franklin(const std::vector<std::uint64_t>& ids,
                        sim::Scheduler& scheduler,
                        const MsgRunOptions& opts) {
  COLEX_EXPECTS(!ids.empty());
  return detail::run_ring(
      ids.size(),
      [&ids](sim::NodeId v) { return std::make_unique<FranklinNode>(ids[v]); },
      scheduler, opts);
}

}  // namespace colex::baselines
