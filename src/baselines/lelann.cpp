// Le Lann's algorithm (1977): every node's ID circulates the whole ring;
// each node collects all n IDs and independently picks the maximum. Exactly
// n^2 messages, no announcement needed, and termination is quiescent: by
// per-channel FIFO, a node's own ID returns only after every other ID has
// passed it.
#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/run_ring.hpp"
#include "util/contracts.hpp"

namespace colex::baselines {
namespace {

class LeLannNode final : public BaselineNode {
 public:
  explicit LeLannNode(std::uint64_t id) : id_(id) {}

  void start(MsgContext& ctx) override {
    Msg m;
    m.kind = Msg::Kind::candidate;
    m.value = id_;
    emit(ctx, kCw, m);
  }

  void react(MsgContext& ctx) override {
    while (auto m = ctx.recv(sim::Port::p0)) {
      COLEX_ASSERT(m->kind == Msg::Kind::candidate);
      if (m->value == id_) {
        // Own ID back: all IDs seen; decide and stop.
        std::uint64_t best = id_;
        for (const std::uint64_t other : seen_) best = std::max(best, other);
        leader_id_ = best;
        is_leader_ = best == id_;
        finish();
        return;
      }
      seen_.push_back(m->value);
      emit(ctx, kCw, *m);
    }
  }

 private:
  std::uint64_t id_;
  std::vector<std::uint64_t> seen_;
};

}  // namespace

BaselineResult lelann(const std::vector<std::uint64_t>& ids,
                      sim::Scheduler& scheduler, const MsgRunOptions& opts) {
  COLEX_EXPECTS(!ids.empty());
  return detail::run_ring(
      ids.size(),
      [&ids](sim::NodeId v) { return std::make_unique<LeLannNode>(ids[v]); },
      scheduler, opts);
}

}  // namespace colex::baselines
