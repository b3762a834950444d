// Probes of the benchmark's traced run: spans kept in memory around the
// calls into each layer, written out as JSONL when the run ends, and a
// forwarding scheduler that times sim::Scheduler::pick.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace colex::perfbench {

/// Steady-clock nanoseconds, the clock obs::FlightEvent::t_ns uses too.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  ///< static string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the causing span, -1 for a root
  std::uint64_t election = 0;
};

/// The spans of one thread. Every span feeds the per-name totals; only the
/// first kCapacity are kept whole, so a long run cannot grow without bound.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 20000;

  /// Records a span and returns its index (-1 once the log is full).
  std::int64_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent,
                   std::uint64_t election) {
    add_total(name, 1, end_ns - start_ns);
    if (spans_.size() >= kCapacity) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, election});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Boundaries crossed once per pulse (pick, react) are too many to keep as
  /// spans; they contribute only their count and total time.
  void add_total(const char* name, std::uint64_t count, std::uint64_t ns) {
    Total& t = totals_[name];
    t.count += count;
    t.ns += ns;
  }

  /// Appends another thread's log (after that thread has been joined).
  void merge(const SpanLog& other) {
    const auto offset = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (spans_.size() >= kCapacity) break;
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(s);
    }
    for (const auto& [name, t] : other.totals_) {
      totals_[name].count += t.count;
      totals_[name].ns += t.ns;
    }
  }

  /// One JSON object per kept span, then one per name with its totals.
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"span\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"election\":" << s.election
          << "}\n";
    }
    for (const auto& [name, t] : totals_) {
      out << "{\"total\":\"" << name << "\",\"count\":" << t.count
          << ",\"ns\":" << t.ns << "}\n";
    }
    return out.good();
  }

 private:
  struct Total {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
};

/// Forwarding decorator in the style of sim::RecordingScheduler: times each
/// pick and counts the channel views it was offered.
class TimedScheduler final : public sim::Scheduler {
 public:
  explicit TimedScheduler(sim::Scheduler& inner) : inner_(inner) {}

  std::size_t pick(const std::vector<sim::ChannelView>& pending) override {
    const std::uint64_t t0 = now_ns();
    if (picks_ == 0) first_pick_ns_ = t0;
    const std::size_t choice = inner_.pick(pending);
    pick_ns_ += now_ns() - t0;
    ++picks_;
    views_ += pending.size();
    return choice;
  }
  std::string name() const override { return "timed(" + inner_.name() + ")"; }
  void reset() override { inner_.reset(); }

  std::uint64_t picks() const { return picks_; }
  std::uint64_t views() const { return views_; }
  std::uint64_t pick_ns() const { return pick_ns_; }
  std::uint64_t first_pick_ns() const { return first_pick_ns_; }

 private:
  sim::Scheduler& inner_;
  std::uint64_t picks_ = 0;
  std::uint64_t views_ = 0;
  std::uint64_t pick_ns_ = 0;
  std::uint64_t first_pick_ns_ = 0;
};

}  // namespace colex::perfbench
