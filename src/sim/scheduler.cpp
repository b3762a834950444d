#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace colex::sim {

std::size_t Scheduler::pick_indexed(const std::vector<std::size_t>&) {
  // Reached only if begin_index() returned true without an override here.
  throw util::ContractViolation(name() + " has no incremental pick");
}

std::size_t GlobalFifoScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  const auto it = std::min_element(
      pending.begin(), pending.end(),
      [](const ChannelView& a, const ChannelView& b) {
        return a.head_seq < b.head_seq;
      });
  return it->channel;
}

bool GlobalFifoScheduler::begin_index(std::size_t channels) {
  COLEX_EXPECTS(channels < kFree);
  head_seq_.assign(channels, kEmpty);
  slots_.assign(std::max<std::size_t>(64, std::bit_ceil(4 * channels)), kFree);
  base_ = 0;
  busy_ = 0;
  rebuilds_ = 0;
  return true;
}

void GlobalFifoScheduler::head_changed(const ChannelView& head) {
  const std::size_t mask = slots_.size() - 1;
  std::uint64_t& seq = head_seq_[head.channel];
  if (seq != kEmpty) {
    slots_[seq & mask] = kFree;
    --busy_;
  }
  if (head.pending == 0) {
    seq = kEmpty;
    return;
  }
  seq = head.head_seq;
  if (busy_++ == 0) base_ = seq;  // an empty window moves for free
  if (seq - base_ < slots_.size()) {  // unsigned: false below the base too
    slots_[seq & mask] = static_cast<std::uint32_t>(head.channel);
  } else {
    rebuild();
  }
}

void GlobalFifoScheduler::rebuild() {
  ++rebuilds_;
  std::uint64_t lo = kEmpty;
  std::uint64_t hi = 0;
  for (const std::uint64_t seq : head_seq_) {
    if (seq == kEmpty) continue;
    lo = std::min(lo, seq);
    hi = std::max(hi, seq);
  }
  std::size_t size = slots_.size();
  while (hi - lo >= size) size *= 2;
  slots_.assign(size, kFree);
  base_ = lo;
  for (std::size_t c = 0; c < head_seq_.size(); ++c) {
    if (head_seq_[c] == kEmpty) continue;
    slots_[head_seq_[c] & (size - 1)] = static_cast<std::uint32_t>(c);
  }
}

std::size_t GlobalFifoScheduler::pick_indexed(
    const std::vector<std::size_t>& busy) {
  COLEX_EXPECTS(!busy.empty());
  COLEX_ASSERT(busy_ != 0);  // every busy head was reported
  // Every head lies in [base_, base_ + slots), so the first filled slot
  // from the base on holds the lowest one.
  const std::size_t mask = slots_.size() - 1;
  while (slots_[base_ & mask] == kFree) ++base_;
  return slots_[base_ & mask];
}

std::size_t GlobalLifoScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  const auto it = std::max_element(
      pending.begin(), pending.end(),
      [](const ChannelView& a, const ChannelView& b) {
        return a.head_seq < b.head_seq;
      });
  return it->channel;
}

std::size_t RandomScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  return pending[rng_.below(pending.size())].channel;
}

std::size_t RandomScheduler::pick_indexed(
    const std::vector<std::size_t>& busy) {
  COLEX_EXPECTS(!busy.empty());
  return busy[rng_.below(busy.size())];
}

std::string RandomScheduler::name() const {
  return "random-" + std::to_string(seed_);
}

std::size_t RoundRobinScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  // Smallest channel id strictly greater than last_, wrapping around.
  const ChannelView* best = nullptr;
  const ChannelView* smallest = nullptr;
  for (const auto& v : pending) {
    if (smallest == nullptr || v.channel < smallest->channel) smallest = &v;
    if (v.channel > last_ && (best == nullptr || v.channel < best->channel)) {
      best = &v;
    }
  }
  const ChannelView* chosen = best != nullptr ? best : smallest;
  last_ = chosen->channel;
  return chosen->channel;
}

std::size_t DrainChannelScheduler::pick(
    const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  for (const auto& v : pending) {
    if (v.channel == current_) return current_;
  }
  const auto it = std::max_element(
      pending.begin(), pending.end(),
      [](const ChannelView& a, const ChannelView& b) {
        if (a.pending != b.pending) return a.pending < b.pending;
        return a.channel > b.channel;  // deterministic tie-break
      });
  current_ = it->channel;
  return current_;
}

std::size_t StarveDirectionScheduler::pick(
    const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  const ChannelView* preferred = nullptr;  // oldest pulse not in starved dir
  const ChannelView* fallback = nullptr;   // oldest pulse overall
  for (const auto& v : pending) {
    if (fallback == nullptr || v.head_seq < fallback->head_seq) fallback = &v;
    if (v.dir != starved_ &&
        (preferred == nullptr || v.head_seq < preferred->head_seq)) {
      preferred = &v;
    }
  }
  return (preferred != nullptr ? preferred : fallback)->channel;
}

std::string StarveDirectionScheduler::name() const {
  return std::string("starve-") + to_string(starved_);
}

std::size_t EclipseScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  const ChannelView* preferred = nullptr;
  for (const auto& v : pending) {
    if (v.channel == eclipsed_) continue;
    if (preferred == nullptr || v.head_seq < preferred->head_seq) {
      preferred = &v;
    }
  }
  return preferred != nullptr ? preferred->channel : eclipsed_;
}

std::string EclipseScheduler::name() const {
  return "eclipse-" + std::to_string(eclipsed_);
}

std::size_t BurstyScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  if (remaining_ > 0) {
    for (const auto& v : pending) {
      if (v.channel == current_) {
        --remaining_;
        return current_;
      }
    }
  }
  const auto& chosen = pending[rng_.below(pending.size())];
  current_ = chosen.channel;
  remaining_ = rng_.below(8);
  return current_;
}

std::string BurstyScheduler::name() const {
  return "bursty-" + std::to_string(seed_);
}

std::size_t WalkScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  // Locate the extremal heads once; bonuses attach to those channels.
  const ChannelView* newest = &pending.front();
  const ChannelView* oldest = &pending.front();
  for (const auto& v : pending) {
    if (v.head_seq > newest->head_seq) newest = &v;
    if (v.head_seq < oldest->head_seq) oldest = &v;
  }
  std::uint64_t total = 0;
  auto weight_of = [&](const ChannelView& v) {
    std::uint64_t w = profile_.base;
    if (&v == newest) w += profile_.lifo;
    if (&v == oldest) w += profile_.fifo;
    if (v.channel == last_) w += profile_.stick;
    w += v.dir == Direction::cw ? profile_.cw : profile_.ccw;
    return w > 0 ? w : 1;  // never starve a channel outright
  };
  for (const auto& v : pending) total += weight_of(v);
  std::uint64_t r = rng_.below(total);
  for (const auto& v : pending) {
    const std::uint64_t w = weight_of(v);
    if (r < w) {
      last_ = v.channel;
      return v.channel;
    }
    r -= w;
  }
  last_ = pending.back().channel;  // unreachable: weights sum to total
  return last_;
}

std::string WalkScheduler::name() const {
  return "walk-" + std::to_string(seed_);
}

std::size_t MixScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  COLEX_EXPECTS(!parts_.empty());
  if (remaining_ == 0) {
    active_ = rng_.below(parts_.size());
    remaining_ = 1 + rng_.below(24);
  }
  --remaining_;
  return parts_[active_]->pick(pending);
}

std::string MixScheduler::name() const {
  return "mix-" + std::to_string(seed_) + "/" +
         std::to_string(parts_.size());
}

void MixScheduler::reset() {
  rng_ = util::Xoshiro256StarStar(seed_);
  active_ = 0;
  remaining_ = 0;
  for (auto& p : parts_) p->reset();
}

std::size_t SolitudeScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  // Order sent; ties (same event step) broken by CW priority (Definition 21).
  const auto it = std::min_element(
      pending.begin(), pending.end(),
      [](const ChannelView& a, const ChannelView& b) {
        if (a.head_stamp != b.head_stamp) return a.head_stamp < b.head_stamp;
        const bool a_ccw = a.dir == Direction::ccw;
        const bool b_ccw = b.dir == Direction::ccw;
        if (a_ccw != b_ccw) return !a_ccw;
        return a.head_seq < b.head_seq;
      });
  return it->channel;
}

std::size_t ReplayScheduler::pick(const std::vector<ChannelView>& pending) {
  COLEX_EXPECTS(!pending.empty());
  if (cursor_ < tape_.size()) {
    const std::size_t wanted = tape_[cursor_];
    for (const auto& v : pending) {
      if (v.channel == wanted) {
        ++cursor_;
        return wanted;
      }
    }
    ++divergences_;
    ++cursor_;
  } else {
    ++divergences_;
  }
  // Fallback: oldest pulse first.
  const ChannelView* oldest = &pending.front();
  for (const auto& v : pending) {
    if (v.head_seq < oldest->head_seq) oldest = &v;
  }
  return oldest->channel;
}

std::vector<NamedScheduler> standard_schedulers(std::size_t random_instances,
                                                std::uint64_t seed_base) {
  std::vector<NamedScheduler> out;
  auto add = [&out](std::unique_ptr<Scheduler> s) {
    std::string n = s->name();
    out.push_back(NamedScheduler{std::move(n), std::move(s)});
  };
  add(std::make_unique<GlobalFifoScheduler>());
  add(std::make_unique<GlobalLifoScheduler>());
  add(std::make_unique<RoundRobinScheduler>());
  add(std::make_unique<DrainChannelScheduler>());
  add(std::make_unique<StarveDirectionScheduler>(Direction::cw));
  add(std::make_unique<StarveDirectionScheduler>(Direction::ccw));
  add(std::make_unique<SolitudeScheduler>());
  add(std::make_unique<EclipseScheduler>(0));
  add(std::make_unique<BurstyScheduler>(seed_base));
  for (std::size_t i = 0; i < random_instances; ++i) {
    add(std::make_unique<RandomScheduler>(seed_base + i));
  }
  return out;
}

}  // namespace colex::sim
