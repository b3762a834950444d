// colexctl — command-line driver for the library: run any algorithm on any
// ring under any adversary, inspect solitude patterns, compare against the
// classical baselines.
//
//   colexctl elect      [--alg alg1|alg2|alg3] [--scheme doubled|improved]
//                       [--n N | --ids 3,9,2] [--scramble SEED]
//                       [--scheduler NAME] [--seed S]
//   colexctl anonymous  [--n N] [--c C] [--seed S] [--scheduler NAME]
//   colexctl compose    [--n N] [--seed S]            (Corollary 5 demo)
//   colexctl solitude   [--id I]                      (Definition 21)
//   colexctl baselines  [--n N] [--seed S]
//   colexctl explore    [--ids 1,2] [--budget B]       (every schedule)
//   colexctl schedulers                                (list adversaries)
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "baselines/baselines.hpp"
#include "co/election.hpp"
#include "colib/apps.hpp"
#include "colib/composed.hpp"
#include "lb/solitude.hpp"
#include "sim/explore.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"
#include "util/table.hpp"

namespace {

using namespace colex;

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args[key] = argv[++i];
    } else {
      args[key] = "1";
    }
  }
  return args;
}

std::string get(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

std::uint64_t get_u64(const Args& args, const std::string& key,
                      std::uint64_t fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback
                          : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::vector<std::uint64_t> parse_ids(const std::string& csv) {
  std::vector<std::uint64_t> ids;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    ids.push_back(std::strtoull(item.c_str(), nullptr, 10));
  }
  return ids;
}

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name,
                                               std::uint64_t seed) {
  for (auto& s : sim::standard_schedulers(1, seed)) {
    // Allow both exact names and seed-less prefixes like "random".
    if (s.name == name || s.name.rfind(name + "-", 0) == 0) {
      return std::move(s.scheduler);
    }
  }
  return nullptr;
}

std::vector<std::uint64_t> resolve_ids(const Args& args) {
  if (args.count("ids") != 0) return parse_ids(get(args, "ids", ""));
  const auto n = static_cast<std::size_t>(get_u64(args, "n", 8));
  return util::shuffled(util::dense_ids(n), get_u64(args, "seed", 1) + 7);
}

int cmd_elect(const Args& args) {
  const auto ids = resolve_ids(args);
  if (ids.empty()) {
    std::cerr << "no ids\n";
    return 1;
  }
  const auto scheduler_name = get(args, "scheduler", "random");
  auto scheduler = make_scheduler(scheduler_name, get_u64(args, "seed", 1));
  if (scheduler == nullptr) {
    std::cerr << "unknown scheduler '" << scheduler_name
              << "' (see: colexctl schedulers)\n";
    return 1;
  }
  const auto alg = get(args, "alg", "alg2");

  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);

  if (alg == "alg1") {
    const auto result = co::elect_oriented_stabilizing(ids, *scheduler);
    std::cout << "alg1 (stabilizing): leader="
              << (result.leader ? std::to_string(*result.leader) : "-")
              << " pulses=" << result.pulses << " (n*IDmax="
              << ids.size() * id_max << ") quiescent="
              << (result.quiescent ? "yes" : "no") << "\n";
    return result.valid_election() ? 0 : 1;
  }
  if (alg == "alg2") {
    const auto result = co::elect_oriented_terminating(ids, *scheduler);
    std::cout << "alg2 (terminating): leader="
              << (result.leader ? std::to_string(*result.leader) : "-")
              << " pulses=" << result.pulses << " (n(2*IDmax+1)="
              << co::theorem1_pulses(ids.size(), id_max)
              << ") terminated="
              << (result.all_terminated ? "yes" : "no") << "\n";
    return result.valid_election() ? 0 : 1;
  }
  if (alg == "alg3") {
    co::Alg3NonOriented::Options options;
    const auto scheme = get(args, "scheme", "improved");
    if (scheme == "doubled") {
      options.scheme = co::IdScheme::doubled;
    } else if (scheme != "improved") {
      std::cerr << "unknown --scheme '" << scheme
                << "' (doubled or improved)\n";
      return 1;
    }
    const auto flips = util::random_flips(
        ids.size(), get_u64(args, "scramble", 0));
    const auto result =
        co::elect_and_orient(ids, flips, options, *scheduler);
    std::cout << "alg3 (" << to_string(options.scheme)
              << "): leader="
              << (result.leader ? std::to_string(*result.leader) : "-")
              << " pulses=" << result.pulses << " oriented="
              << (result.orientation_consistent ? "yes" : "no") << "\n";
    return result.valid_election() && result.orientation_consistent ? 0 : 1;
  }
  std::cerr << "unknown --alg '" << alg << "'\n";
  return 1;
}

int cmd_anonymous(const Args& args) {
  const auto n = static_cast<std::size_t>(get_u64(args, "n", 8));
  const double c = std::strtod(get(args, "c", "2.0").c_str(), nullptr);
  const auto seed = get_u64(args, "seed", 1);
  auto scheduler =
      make_scheduler(get(args, "scheduler", "random"), seed);
  if (scheduler == nullptr || n == 0 || c <= 0) {
    std::cerr << "bad arguments\n";
    return 1;
  }
  const auto flips = util::random_flips(n, seed * 3);
  const auto result =
      co::anonymous_election(n, flips, c, seed, *scheduler);
  std::uint64_t mx = 0;
  for (const auto& s : result.sampled) mx = std::max(mx, s.id);
  std::cout << "anonymous: n=" << n << " c=" << c << " IDmax=" << mx
            << " unique-max=" << (result.sampled_unique_max ? "yes" : "no")
            << " elected="
            << (result.election.valid_election() ? "yes" : "no")
            << " pulses=" << result.election.pulses << "\n";
  return 0;
}

int cmd_compose(const Args& args) {
  const auto ids = resolve_ids(args);
  auto scheduler =
      make_scheduler(get(args, "scheduler", "random"),
                     get_u64(args, "seed", 1));
  if (scheduler == nullptr) return 1;
  sim::PulseNetwork net;
  const auto result = colib::run_composed_with_network(
      ids,
      [](sim::NodeId v) {
        return std::make_unique<colib::GatherAllApp>(v + 1);
      },
      *scheduler, {}, net);
  std::cout << "compose: leader="
            << (result.leader ? std::to_string(*result.leader) : "-")
            << " n-learned=" << result.ring_size_learned
            << " election-pulses=" << result.election_pulses
            << " bus-pulses=" << result.bus_pulses << " terminated="
            << (result.all_terminated ? "yes" : "no") << "\n";
  return result.all_terminated ? 0 : 1;
}

int cmd_solitude(const Args& args) {
  const auto id = get_u64(args, "id", 5);
  const auto pattern = lb::solitude_pattern(
      [](std::uint64_t i) -> std::unique_ptr<sim::PulseAutomaton> {
        return std::make_unique<co::Alg2Terminating>(i);
      },
      id);
  std::cout << "solitude pattern of ID " << id << " (0=CW, 1=CCW): "
            << pattern.bits << "\n";
  std::cout << "length=" << pattern.bits.size() << " (2*ID+1="
            << 2 * id + 1 << "), terminated="
            << (pattern.terminated ? "yes" : "no") << "\n";
  return 0;
}

int cmd_baselines(const Args& args) {
  const auto ids = resolve_ids(args);
  util::Table table({"algorithm", "messages", "bits", "leader-id", "ok"});
  auto row = [&table](const char* name, const baselines::BaselineResult& r) {
    table.add_row({name, util::Table::num(r.messages),
                   util::Table::num(r.bits), util::Table::num(r.leader_id),
                   r.ok ? "yes" : "NO"});
  };
  sim::GlobalFifoScheduler s0, s1, s2, s3, s4;
  row("lelann", baselines::lelann(ids, s0));
  row("chang-roberts", baselines::chang_roberts(ids, s1));
  row("hirschberg-sinclair", baselines::hirschberg_sinclair(ids, s2));
  row("peterson", baselines::peterson(ids, s3));
  row("franklin", baselines::franklin(ids, s4));
  sim::GlobalFifoScheduler s5;
  const auto ir =
      baselines::itai_rodeh(ids.size(), get_u64(args, "seed", 1), s5);
  row("itai-rodeh (anon)", ir);
  sim::GlobalFifoScheduler s6;
  const auto co_result = co::elect_oriented_terminating(ids, s6);
  table.add_row({"content-oblivious alg2",
                 util::Table::num(co_result.pulses), "0 (pulses only)",
                 util::Table::num(
                     co_result.leader ? ids[*co_result.leader] : 0),
                 co_result.valid_election() ? "yes" : "NO"});
  table.print(std::cout);
  return 0;
}

int cmd_explore(const Args& args) {
  const auto ids = args.count("ids") != 0
                       ? parse_ids(get(args, "ids", ""))
                       : std::vector<std::uint64_t>{1, 2};
  if (ids.empty() || ids.size() > 3) {
    std::cerr << "explore: give 1-3 ids (the schedule tree is exponential)\n";
    return 1;
  }
  std::uint64_t id_max = 0;
  for (const auto id : ids) id_max = std::max(id_max, id);
  std::uint64_t bad_leaves = 0;
  const auto stats = sim::explore_all_schedules(
      [&ids] {
        auto net = sim::PulseNetwork::ring(ids.size());
        for (sim::NodeId v = 0; v < ids.size(); ++v) {
          net.set_automaton(v,
                            std::make_unique<co::Alg2Terminating>(ids[v]));
        }
        return net;
      },
      [&](sim::PulseNetwork& net) {
        std::size_t leaders = 0;
        for (sim::NodeId v = 0; v < ids.size(); ++v) {
          const auto& alg = net.automaton_as<co::Alg2Terminating>(v);
          if (!alg.terminated()) ++bad_leaves;
          if (alg.role() == co::Role::leader) ++leaders;
        }
        if (leaders != 1 ||
            net.total_sent() !=
                co::theorem1_pulses(ids.size(), id_max)) {
          ++bad_leaves;
        }
      },
      get_u64(args, "budget", 2'000'000));
  std::cout << "explore: " << stats.leaves << " distinct schedules"
            << (stats.exhaustive() ? " (exhaustive)" : " (TRUNCATED)")
            << ", max depth " << stats.max_depth << ", violations "
            << bad_leaves << "\n";
  return stats.exhaustive() && bad_leaves == 0 ? 0 : 1;
}

int cmd_schedulers() {
  std::cout << "standard adversary suite:\n";
  for (const auto& s : sim::standard_schedulers(1)) {
    std::cout << "  " << s.name << "\n";
  }
  return 0;
}

void usage() {
  std::cout <<
      "usage: colexctl <command> [options]\n"
      "  elect      --alg alg1|alg2|alg3 [--scheme doubled|improved]\n"
      "             [--n N | --ids 3,9,2] [--scramble SEED]\n"
      "             [--scheduler NAME] [--seed S]\n"
      "  anonymous  --n N --c C [--seed S]\n"
      "  compose    [--n N | --ids ...] [--seed S]\n"
      "  solitude   --id I\n"
      "  baselines  [--n N | --ids ...]\n"
      "  explore    --ids 1,2 [--budget B]   (exhaustive schedules)\n"
      "  schedulers\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (command == "elect") return cmd_elect(args);
    if (command == "anonymous") return cmd_anonymous(args);
    if (command == "compose") return cmd_compose(args);
    if (command == "solitude") return cmd_solitude(args);
    if (command == "baselines") return cmd_baselines(args);
    if (command == "explore") return cmd_explore(args);
    if (command == "schedulers") return cmd_schedulers();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  usage();
  return 1;
}
