// Bounded progress history for stall watchdogs.
//
// The executor's watchdog samples a cheap scalar progress indicator (global
// consumed count) on a fixed cadence and keeps the last N samples with a
// human-readable annotation; when a timeout fires, the retained window
// answers the first post-mortem question — "was the run dead all along or
// did it die at t=X?". The soak harness reuses the same shape per shard,
// where a flat tail over the observation window flags a shard whose
// elections stopped completing.
//
// ProgressTracker is deliberately tiny and thread-safe: any thread may
// record(), any thread may read. Recording is a mutex-guarded deque push —
// watchdog cadence is tens of milliseconds, so contention is irrelevant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace colex::rt {

class ProgressTracker {
 public:
  /// `depth` is the number of retained samples; older samples fall off.
  explicit ProgressTracker(std::size_t depth = 16) : depth_(depth) {
    COLEX_EXPECTS(depth >= 1);
  }

  std::size_t depth() const { return depth_; }

  /// Appends one sample: `value` is the scalar progress indicator the stall
  /// predicate compares, `text` the annotation history() reports.
  void record(std::uint64_t value, std::string text) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(Sample{value, std::move(text)});
    if (samples_.size() > depth_) samples_.pop_front();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
  }

  /// Retained sample annotations, oldest first.
  std::vector<std::string> history() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_) out.push_back(s.text);
    return out;
  }

  /// Stall signal: true iff at least `window` samples are retained and the
  /// last `window` recorded values are all identical — the progress
  /// indicator has been flat across the whole observation window. Requires
  /// 1 <= window <= depth().
  bool stalled_tail(std::size_t window) const {
    COLEX_EXPECTS(window >= 1 && window <= depth_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.size() < window) return false;
    const std::uint64_t last = samples_.back().value;
    for (std::size_t i = samples_.size() - window; i < samples_.size(); ++i) {
      if (samples_[i].value != last) return false;
    }
    return true;
  }

 private:
  struct Sample {
    std::uint64_t value;
    std::string text;
  };

  mutable std::mutex mutex_;
  std::size_t depth_;
  std::deque<Sample> samples_;
};

}  // namespace colex::rt
