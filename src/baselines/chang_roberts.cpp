// Chang-Roberts (1979): IDs circulate clockwise; a node forwards only IDs
// larger than its own, so exactly one ID — the maximum — survives a full
// circulation and its owner becomes leader. A final announcement informs the
// others. O(n^2) messages worst case (IDs sorted against the direction of
// travel), O(n log n) expected for random placement.
#include <memory>
#include <vector>

#include "baselines/run_ring.hpp"
#include "util/contracts.hpp"

namespace colex::baselines {
namespace {

class ChangRobertsNode final : public BaselineNode {
 public:
  explicit ChangRobertsNode(std::uint64_t id) : id_(id) {}

  void start(MsgContext& ctx) override {
    Msg m;
    m.kind = Msg::Kind::candidate;
    m.value = id_;
    emit(ctx, kCw, m);
  }

  void react(MsgContext& ctx) override {
    while (auto m = ctx.recv(sim::Port::p0)) {
      if (terminated()) return;  // drained between deliveries
      switch (m->kind) {
        case Msg::Kind::announce:
          on_announce(ctx, *m);
          break;
        case Msg::Kind::candidate:
          if (m->value > id_) {
            emit(ctx, kCw, *m);
          } else if (m->value == id_) {
            start_announce(ctx, id_);  // own ID survived the full circle
          }
          // smaller IDs are swallowed
          break;
        default:
          COLEX_ASSERT(false);
      }
    }
  }

 private:
  std::uint64_t id_;
};

}  // namespace

BaselineResult chang_roberts(const std::vector<std::uint64_t>& ids,
                             sim::Scheduler& scheduler,
                             const MsgRunOptions& opts) {
  COLEX_EXPECTS(!ids.empty());
  return detail::run_ring(
      ids.size(),
      [&ids](sim::NodeId v) {
        return std::make_unique<ChangRobertsNode>(ids[v]);
      },
      scheduler, opts);
}

}  // namespace colex::baselines
