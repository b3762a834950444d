// Peterson (1982): unidirectional O(n log n) election. Active nodes carry
// temporary IDs; in each phase an active node compares the temp ID of its
// active predecessor (t1) against its own and its pre-predecessor's (t2),
// surviving only as the local maximum. At least half the active nodes drop
// to relay status per phase. With per-channel FIFO no phase numbers are
// needed: message order alone disambiguates.
#include <memory>
#include <vector>

#include "baselines/run_ring.hpp"
#include "util/contracts.hpp"

namespace colex::baselines {
namespace {

class PetersonNode final : public BaselineNode {
 public:
  explicit PetersonNode(std::uint64_t id) : id_(id), tid_(id) {}

  void start(MsgContext& ctx) override { send_tid(ctx, tid_); }

  void react(MsgContext& ctx) override {
    while (auto m = ctx.recv(sim::Port::p0)) {
      if (terminated()) return;
      if (m->kind == Msg::Kind::announce) {
        on_announce(ctx, *m);
        continue;
      }
      COLEX_ASSERT(m->kind == Msg::Kind::candidate);
      if (relay_) {
        emit(ctx, kCw, *m);
        continue;
      }
      if (expecting_first_) {
        if (m->value == tid_) {
          // Own temp ID made it all the way around: sole survivor.
          start_announce(ctx, id_);
          continue;
        }
        t1_ = m->value;
        send_tid(ctx, t1_);
        expecting_first_ = false;
      } else {
        const std::uint64_t t2 = m->value;
        expecting_first_ = true;
        if (t1_ > tid_ && t1_ > t2) {
          tid_ = t1_;  // adopt the winning temp ID, stay active
          send_tid(ctx, tid_);
        } else {
          relay_ = true;
        }
      }
    }
  }

 private:
  void send_tid(MsgContext& ctx, std::uint64_t value) {
    Msg m;
    m.kind = Msg::Kind::candidate;
    m.value = value;
    emit(ctx, kCw, m);
  }

  std::uint64_t id_;
  std::uint64_t tid_;
  std::uint64_t t1_ = 0;
  bool expecting_first_ = true;
  bool relay_ = false;
};

}  // namespace

BaselineResult peterson(const std::vector<std::uint64_t>& ids,
                        sim::Scheduler& scheduler,
                        const MsgRunOptions& opts) {
  COLEX_EXPECTS(!ids.empty());
  return detail::run_ring(
      ids.size(),
      [&ids](sim::NodeId v) { return std::make_unique<PetersonNode>(ids[v]); },
      scheduler, opts);
}

}  // namespace colex::baselines
