// Hirschberg-Sinclair (1980): bidirectional doubling. In phase k an active
// node probes 2^k hops in both directions; probes are swallowed by any node
// with a larger ID, turned around into replies at the hop limit, and a node
// that collects both replies enters the next phase. The maximum ID's probe
// eventually circumnavigates and returns to its owner, who becomes leader.
// O(n log n) messages.
//
// Note on termination: stray probes/replies of defeated nodes may still be
// in flight when the announcement circulates; they arrive at terminated
// nodes and are discarded (content-carrying messages can be recognized as
// stale — exactly the luxury content-oblivious algorithms lack, §1.1).
#include <memory>
#include <vector>

#include "baselines/run_ring.hpp"
#include "util/contracts.hpp"

namespace colex::baselines {
namespace {

class HsNode final : public BaselineNode {
 public:
  explicit HsNode(std::uint64_t id) : id_(id) {}

  void start(MsgContext& ctx) override { send_probes(ctx); }

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
    switch (m.kind) {
      case Msg::Kind::announce:
        on_announce(ctx, m);
        return;
      case Msg::Kind::probe:
        if (is_leader_) return;  // draining strays while announce circulates
        if (m.value == id_) {
          // Own probe circumnavigated: no larger ID exists.
          if (!is_leader_) start_announce(ctx, id_);
          return;
        }
        if (m.value < id_) return;  // swallowed: the prober is defeated here
        defeated_ = true;           // a larger ID exists: stop initiating
        if (m.hops > 1) {
          Msg fwd = m;
          fwd.hops = m.hops - 1;
          emit(ctx, sim::opposite(q), fwd);  // continue outward
        } else {
          Msg reply;
          reply.kind = Msg::Kind::reply;
          reply.value = m.value;
          reply.phase = m.phase;
          emit(ctx, q, reply);  // turn around, back toward the prober
        }
        return;
      case Msg::Kind::reply:
        if (is_leader_) return;
        if (m.value != id_) {
          emit(ctx, sim::opposite(q), m);  // keep traveling toward its owner
          return;
        }
        COLEX_ASSERT(replies_pending_ > 0);
        if (--replies_pending_ == 0 && !defeated_) {
          ++phase_;
          send_probes(ctx);
        }
        return;
      default:
        COLEX_ASSERT(false);
    }
  }

  void send_probes(MsgContext& ctx) {
    replies_pending_ = 2;
    Msg m;
    m.kind = Msg::Kind::probe;
    m.value = id_;
    m.phase = phase_;
    m.hops = 1u << phase_;
    emit(ctx, sim::Port::p0, m);
    emit(ctx, sim::Port::p1, m);
  }

  std::uint64_t id_;
  std::uint32_t phase_ = 0;
  int replies_pending_ = 0;
  bool defeated_ = false;
};

}  // namespace

BaselineResult hirschberg_sinclair(const std::vector<std::uint64_t>& ids,
                                   sim::Scheduler& scheduler,
                                   const MsgRunOptions& opts) {
  COLEX_EXPECTS(!ids.empty());
  return detail::run_ring(
      ids.size(),
      [&ids](sim::NodeId v) { return std::make_unique<HsNode>(ids[v]); },
      scheduler, opts);
}

}  // namespace colex::baselines
