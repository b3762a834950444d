#include "svc/churn.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace colex::svc {

const char* to_string(ChurnPreset preset) {
  switch (preset) {
    case ChurnPreset::calm: return "calm";
    case ChurnPreset::steady: return "steady";
    case ChurnPreset::storm: return "storm";
  }
  return "?";
}

bool preset_from_string(const std::string& s, ChurnPreset& out) {
  for (const ChurnPreset p :
       {ChurnPreset::calm, ChurnPreset::steady, ChurnPreset::storm}) {
    if (s == to_string(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

ChurnProfile ChurnProfile::preset(ChurnPreset preset) {
  ChurnProfile p;  // defaults are the steady profile
  switch (preset) {
    case ChurnPreset::calm:
      p.fault_fraction = 0.15;
      p.crash_cycle_prob = 0.3;
      p.max_crash_cycles = 1;
      p.storm_prob = 0.15;
      p.max_storm_len = 3;
      p.noise_prob = 0.1;
      p.preseed_prob = 0.05;
      p.max_n = 6;
      p.max_id = 10;
      break;
    case ChurnPreset::steady:
      break;
    case ChurnPreset::storm:
      p.fault_fraction = 0.85;
      p.crash_cycle_prob = 0.7;
      p.max_crash_cycles = 3;
      p.storm_prob = 0.8;
      p.max_storm_len = 10;
      p.noise_prob = 0.4;
      p.preseed_prob = 0.3;
      p.max_id = 16;
      break;
  }
  return p;
}

std::uint64_t RingSpec::id_max() const {
  std::uint64_t m = 0;
  for (const auto id : ids) m = std::max(m, id);
  return m;
}

std::uint64_t RingSpec::pulse_bound() const {
  const std::uint64_t m = id_max();
  return m == 0 ? 0 : ids.size() * (2 * m + 1);
}

ChurnEngine::ChurnEngine(std::uint64_t soak_seed, std::size_t slot,
                         ChurnProfile profile)
    : seed_(soak_seed), slot_(slot), profile_(profile) {
  COLEX_EXPECTS(profile_.min_n >= 1 && profile_.min_n <= profile_.max_n);
  COLEX_EXPECTS(profile_.max_id >= profile_.max_n);
  COLEX_EXPECTS(profile_.max_crash_cycles >= 1);
  COLEX_EXPECTS(profile_.max_storm_len >= 1);
}

namespace {

/// Unique IDs for a fresh ring: n distinct draws from [1, max(n, max_id)],
/// in random ring order (same pool idiom as qa's generators).
std::vector<std::uint64_t> sample_ids(std::size_t n, std::uint64_t max_id,
                                      util::Xoshiro256StarStar& rng) {
  const std::uint64_t hi = std::max<std::uint64_t>(n, max_id);
  std::vector<std::uint64_t> pool;
  pool.reserve(hi);
  for (std::uint64_t id = 1; id <= hi; ++id) pool.push_back(id);
  std::vector<std::uint64_t> ids(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t k = rng.below(pool.size());
    ids[v] = pool[k];
    pool[k] = pool.back();
    pool.pop_back();
  }
  return ids;
}

/// The churn adversary's plan for one attempt. `decay` in (0, 1] scales
/// every intensity (the supervisor's backoff); `horizon` is the clean-run
/// event count scripted faults should land inside.
sim::FaultPlan sample_plan(std::size_t n, std::uint64_t horizon, double decay,
                           const ChurnProfile& p,
                           util::Xoshiro256StarStar& rng) {
  sim::FaultPlan plan;
  plan.seed = rng.next();
  const std::size_t channels = 2 * n;
  std::vector<sim::ScriptedFault> script;

  // Crash/recover cycles: each crashes one node and recovers it later. The
  // offsets strictly increase, so within a cycle the recover always follows
  // its crash and the merged script stays valid under FaultPlan::validate().
  if (rng.bernoulli(p.crash_cycle_prob * decay)) {
    const std::size_t cycles = 1 + rng.below(p.max_crash_cycles);
    std::uint64_t at = rng.below(horizon / 2 + 1);
    for (std::size_t i = 0; i < cycles; ++i) {
      const sim::NodeId node = rng.below(n);
      sim::ScriptedFault crash;
      crash.kind = sim::FaultKind::crash;
      crash.at_event = at;
      crash.node = node;
      script.push_back(crash);
      at += 1 + rng.below(horizon / 4 + 1);
      sim::ScriptedFault recover;
      recover.kind = sim::FaultKind::recover;
      recover.at_event = at;
      recover.node = node;
      script.push_back(recover);
      at += 1 + rng.below(horizon / 4 + 1);
    }
  }

  // Fault storm: a burst of channel one-shots landing entirely on a single
  // channel at closely spaced event indices.
  if (rng.bernoulli(p.storm_prob * decay)) {
    const std::size_t channel = rng.below(channels);
    const std::size_t len = 1 + rng.below(p.max_storm_len);
    std::uint64_t at = rng.below(horizon + 1);
    for (std::size_t i = 0; i < len; ++i) {
      sim::ScriptedFault f;
      switch (rng.below(3)) {
        case 0: f.kind = sim::FaultKind::drop; break;
        case 1: f.kind = sim::FaultKind::duplicate; break;
        default: f.kind = sim::FaultKind::spurious; break;
      }
      f.at_event = at;
      f.channel = channel;
      script.push_back(f);
      at += rng.below(3);
    }
  }

  // Merge the cycle and storm streams into one at_event-sorted script.
  // stable_sort keeps each cycle's crash-before-recover order (their
  // offsets differ anyway) and the storm's intra-burst order on ties.
  std::stable_sort(script.begin(), script.end(),
                   [](const sim::ScriptedFault& a, const sim::ScriptedFault& b) {
                     return a.at_event < b.at_event;
                   });
  plan.script = std::move(script);

  // Sustained low-rate noise on every channel (rates in the band E13 showed
  // to be survivable rather than an instant livelock).
  if (rng.bernoulli(p.noise_prob * decay)) {
    sim::ChannelFaultProfile noise;
    const double rate = (0.002 + 0.01 * rng.uniform01()) * decay;
    switch (rng.below(3)) {
      case 0: noise.drop_prob = rate; break;
      case 1: noise.duplicate_prob = rate; break;
      default: noise.spurious_prob = rate; break;
    }
    plan.all_channels = noise;
  }

  // Corrupted initial channel state: pulses nobody sent, already in flight
  // at start.
  if (rng.bernoulli(p.preseed_prob * decay)) {
    plan.preseed_channels.emplace_back(rng.below(channels), 1 + rng.below(3));
  }
  return plan;
}

}  // namespace

RingSpec ChurnEngine::spec(std::uint64_t election, unsigned attempt,
                           unsigned clean_after) const {
  // Decorrelate (seed, slot, election, attempt) through two SplitMix64
  // stages so neighbouring slots, consecutive elections, and successive
  // retry attempts all draw from unrelated streams.
  util::SplitMix64 outer(seed_ + 0x9E3779B97F4A7C15ULL *
                                     static_cast<std::uint64_t>(slot_ + 1));
  util::SplitMix64 inner(outer.next() + 0xBF58476D1CE4E5B9ULL * (election + 1));
  util::Xoshiro256StarStar rng(inner.next() + attempt);

  RingSpec out;
  const std::size_t n =
      profile_.min_n + rng.below(profile_.max_n - profile_.min_n + 1);
  out.alg = rng.bernoulli(0.5) ? SoakAlg::alg1 : SoakAlg::alg2;
  out.ids = sample_ids(n, profile_.max_id, rng);
  out.schedule_seed = rng.next();

  // Event budget: a clean run takes n starts plus ~bound deliveries;
  // duplicates, spurious pulses, and recovery restarts inflate that, so the
  // deadline starts at 4x clean and doubles per retry (exponential
  // backoff). Algorithm 1 under sustained spurious noise livelocks by
  // design — the budget is what converts that into a classified `diverged`
  // attempt instead of a wedged shard.
  const std::uint64_t clean_events =
      out.pulse_bound() + static_cast<std::uint64_t>(n) + 8;
  out.max_events = (4 * clean_events) << std::min(attempt, 6u);

  const double decay = 1.0 / static_cast<double>(1u << std::min(attempt, 16u));
  if (attempt < clean_after &&
      rng.bernoulli(profile_.fault_fraction * decay)) {
    out.faults = sample_plan(n, clean_events, decay, profile_, rng);
  }
  COLEX_ENSURES(out.faults.validate().empty());
  return out;
}

}  // namespace colex::svc
