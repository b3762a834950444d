// colex_perfbench_planted: test-only twin of colex_perfbench. On
// sim-large-ring every pick first busy-waits PERFBENCH_PICK_DELAY_NS
// nanoseconds (0 when unset) — the planted slowdown that
// planted_slowdown.py expects the comparison to flag. The other workloads
// run exactly as in colex_perfbench.
#include <cstdlib>
#include <memory>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

class DelayedScheduler final : public colex::sim::Scheduler {
 public:
  DelayedScheduler(colex::sim::Scheduler& inner, std::uint64_t delay_ns)
      : inner_(inner), delay_ns_(delay_ns) {}

  std::size_t pick(const std::vector<colex::sim::ChannelView>& pending) override {
    const std::uint64_t until = colex::perfbench::now_ns() + delay_ns_;
    while (colex::perfbench::now_ns() < until) {
    }
    return inner_.pick(pending);
  }
  std::string name() const override { return "delayed(" + inner_.name() + ")"; }
  void reset() override { inner_.reset(); }

 private:
  colex::sim::Scheduler& inner_;
  std::uint64_t delay_ns_;
};

}  // namespace

int main(int argc, char** argv) {
  const char* env = std::getenv("PERFBENCH_PICK_DELAY_NS");
  const std::uint64_t delay_ns =
      env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
  return colex::perfbench::bench_main(
      argc, argv, [delay_ns](colex::sim::Scheduler& inner) {
        return std::make_unique<DelayedScheduler>(inner, delay_ns);
      });
}
