// Itai-Rodeh (1990): randomized leader election on an *anonymous* ring of
// known size n. Active nodes draw random IDs per phase; messages carry
// (phase, id, hop count, uniqueness bit) and circulate clockwise. A message
// returning to its originator (hop == n) with the bit intact means the ID
// was the round's unique maximum: leader. Duplicated maxima redraw.
//
// The paper cites this line of work (§1.2, [26]) for the fact that knowing
// n buys terminating anonymous election — the content-oblivious Theorem 3
// must instead settle for quiescent stabilization without knowledge of n.
#include <memory>

#include "baselines/run_ring.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace colex::baselines {
namespace {

class ItaiRodehNode final : public BaselineNode {
 public:
  ItaiRodehNode(std::size_t n, std::uint64_t seed)
      : n_(static_cast<std::uint32_t>(n)), rng_(seed) {}

  void start(MsgContext& ctx) override { new_phase(ctx); }

  void react(MsgContext& ctx) override {
    while (auto m = ctx.recv(sim::Port::p0)) {
      if (terminated()) return;
      if (m->kind == Msg::Kind::announce) {
        on_announce(ctx, *m);
        continue;
      }
      COLEX_ASSERT(m->kind == Msg::Kind::candidate);
      handle(ctx, *m);
    }
  }

 private:
  void handle(MsgContext& ctx, const Msg& m) {
    if (is_leader_) return;  // draining strays
    if (m.hops == n_) {
      // The message is back at its originator (hop-counted full circle).
      if (active_ && m.phase == phase_ && m.value == id_) {
        if (m.flag) {
          start_announce(ctx, id_);  // unique maximum of this phase
        } else {
          new_phase(ctx);  // duplicated maximum: redraw
        }
      }
      // A passive originator silently retires its stale message.
      return;
    }
    if (!active_) {
      forward(ctx, m);
      return;
    }
    // Lexicographic comparison on (phase, id).
    if (m.phase > phase_ || (m.phase == phase_ && m.value > id_)) {
      active_ = false;
      forward(ctx, m);
    } else if (m.phase == phase_ && m.value == id_) {
      Msg dup = m;
      dup.flag = false;  // mark: this ID is not unique in this phase
      forward(ctx, dup);
    }
    // Strictly smaller (phase, id): swallow.
  }

  void forward(MsgContext& ctx, Msg m) {
    m.hops += 1;
    emit(ctx, kCw, m);
  }

  void new_phase(MsgContext& ctx) {
    ++phase_;
    id_ = rng_.in_range(1, 2 * static_cast<std::uint64_t>(n_));
    Msg m;
    m.kind = Msg::Kind::candidate;
    m.value = id_;
    m.phase = phase_;
    m.hops = 1;
    m.flag = true;
    emit(ctx, kCw, m);
  }

  std::uint32_t n_;
  util::Xoshiro256StarStar rng_;
  std::uint32_t phase_ = 0;
  std::uint64_t id_ = 0;
  bool active_ = true;
};

}  // namespace

BaselineResult itai_rodeh(std::size_t n, std::uint64_t seed,
                          sim::Scheduler& scheduler,
                          const MsgRunOptions& opts) {
  COLEX_EXPECTS(n >= 1);
  util::SplitMix64 seeder(seed);
  return detail::run_ring(
      n,
      [n, &seeder](sim::NodeId) {
        return std::make_unique<ItaiRodehNode>(n, seeder.next());
      },
      scheduler, opts);
}

}  // namespace colex::baselines
