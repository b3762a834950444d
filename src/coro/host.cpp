#include "coro/host.hpp"

#include "util/contracts.hpp"

namespace colex::coro {
namespace {

/// sim::Context over a node of the executor's table. `moved` records
/// whether anything was taken or sent since it was last cleared.
class CoroContext final : public sim::PulseContext {
 public:
  CoroContext(Executor& ex, std::uint32_t self) : ex_(ex), self_(self) {}

  std::size_t queued(sim::Port p) const override {
    return ex_.queued_pulses(self_, p);
  }
  std::optional<sim::Pulse> recv(sim::Port p) override {
    if (!ex_.recv_pulse(self_, p)) return std::nullopt;
    moved = true;
    return sim::Pulse{};
  }
  using sim::PulseContext::send;
  void send(sim::Port p, sim::Pulse) override {
    ex_.send_pulse(self_, p);
    moved = true;
  }
  bool serialized_reactions() const override { return false; }

  bool moved = false;

 private:
  Executor& ex_;
  std::uint32_t self_;
};

/// Reacts until a react takes and sends nothing: one that moved may have
/// changed which ports the automaton reads (the Corollary 5 stack switches
/// from the election to the bus), so only an idle react's polls say which
/// pulses can wake the node.
void react_until_idle(sim::PulseAutomaton& automaton, CoroContext& ctx) {
  do {
    ctx.moved = false;
    automaton.react(ctx);
  } while (ctx.moved && !automaton.terminated());
}

rt::ElectionTask host_node(Executor& ex, std::uint32_t v,
                           sim::PulseAutomaton& automaton) {
  CoroContext ctx(ex, v);
  CoroIo io = ex.io(v);
  automaton.start(ctx);
  react_until_idle(automaton, ctx);
  while (!automaton.terminated()) {
    if (!co_await io.wait_any()) break;  // stopped: quiescence or timeout
    react_until_idle(automaton, ctx);
  }
  co_return rt::BlockingOutcome{};
}

}  // namespace

HostRunResult run_automata_on_coro(std::size_t n,
                                   const std::vector<bool>& port_flips,
                                   const HostFactory& factory,
                                   const CoroRunOptions& options) {
  COLEX_EXPECTS(n >= 1);
  HostRunResult result;
  result.automata.reserve(n);
  for (sim::NodeId v = 0; v < n; ++v) {
    auto automaton = factory(v);
    COLEX_EXPECTS(automaton != nullptr);
    result.automata.push_back(std::move(automaton));
  }

  Executor ex(n, port_flips,
              ExecutorOptions{options.workers, options.timeout_ms,
                              options.metrics});
  std::vector<rt::ElectionTask> tasks;
  tasks.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    tasks.push_back(host_node(ex, v, *result.automata[v]));
    ex.bind(v, tasks.back().handle());
  }
  result.completed = ex.run();
  result.pulses = ex.total_sent();
  if (!result.completed) result.stall_dump = ex.stall_dump();
  for (const auto& task : tasks) task.rethrow_if_error();

  result.all_terminated = true;
  for (const auto& automaton : result.automata) {
    if (!automaton->terminated()) result.all_terminated = false;
  }
  return result;
}

}  // namespace colex::coro
