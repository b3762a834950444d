// Chase-Lev work-stealing deque (Chase & Lev, SPAA'05; memory orderings
// after Lê et al., PPoPP'13) specialized for the coroutine executor:
//
//  * Entries are node indices (uint32), not pointers — the executor's node
//    table is the single source of truth, and atomic 32-bit slots make the
//    buffer trivially data-race-free under TSan.
//  * Fixed capacity, no growth: a node is enqueued at most once per
//    PARKED->READY transition and is popped before it can transition again,
//    so a deque can never hold more than n live entries. The executor sizes
//    each deque to next_pow2(n + 1) up front (4 bytes per slot), trading a
//    few MB at n=10^6 for the removal of the entire growth/ABA machinery.
//  * Orderings are seq_cst at the top/bottom races instead of the paper's
//    standalone fences: TSan does not model atomic_thread_fence, and the
//    executor's throughput is bounded by pulse hand-offs, not deque ops.
//
// Owner calls push()/pop() (LIFO end); any other thread may steal() (FIFO
// end). All three are lock-free; steal() may spuriously fail under
// contention, which callers treat as "try the next victim".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "coro/spsc.hpp"  // next_pow2, kCacheLine
#include "util/contracts.hpp"

namespace colex::coro {

class WorkDeque {
 public:
  /// `capacity` is the maximum number of simultaneously queued entries the
  /// caller guarantees; rounded up to a power of two (+1 slot of slack so a
  /// thief's pre-CAS slot read can never be overwritten by a same-index
  /// wraparound push).
  explicit WorkDeque(std::size_t capacity)
      : buf_(next_pow2(capacity + 1)), mask_(static_cast<std::int64_t>(
                                           buf_.size() - 1)) {}

  /// Owner: enqueue at the bottom. The capacity contract makes overflow a
  /// logic error, not a runtime condition.
  void push(std::uint32_t v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    COLEX_ASSERT(b - t <= mask_);  // capacity contract (see ctor)
    buf_[static_cast<std::size_t>(b & mask_)].store(
        v, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_seq_cst);  // publish to thieves
  }

  /// Owner: take from the bottom (LIFO). Returns false when empty.
  bool pop(std::uint32_t& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);  // reserve before reading top
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t < b) {  // more than one entry: no race possible
      out = buf_[static_cast<std::size_t>(b & mask_)].load(
          std::memory_order_relaxed);
      return true;
    }
    bool won = false;
    if (t == b) {  // last entry: race the thieves for it via top
      won = top_.compare_exchange_strong(t, t + 1,
                                         std::memory_order_seq_cst,
                                         std::memory_order_seq_cst);
      if (won) {
        out = buf_[static_cast<std::size_t>(b & mask_)].load(
            std::memory_order_relaxed);
      }
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // restore canonical form
    return won;
  }

  /// Thief: take from the top (FIFO). May spuriously fail under contention
  /// (lost CAS) — callers just move on to the next victim.
  bool steal(std::uint32_t& out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;  // empty
    // Read the slot before claiming it: a successful CAS proves the owner
    // had not popped past t, and the +1 capacity slack proves no concurrent
    // push wrapped onto this slot.
    const std::uint32_t v = buf_[static_cast<std::size_t>(t & mask_)].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      return false;
    }
    out = v;
    return true;
  }

  /// Approximate occupancy (exact when quiescent).
  std::size_t size() const {
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  alignas(kCacheLine) std::atomic<std::int64_t> top_{0};
  alignas(kCacheLine) std::atomic<std::int64_t> bottom_{0};
  alignas(kCacheLine) std::vector<std::atomic<std::uint32_t>> buf_;
  std::int64_t mask_;
};

/// Owner-only FIFO of node indices for cooperative yields (wait_any with a
/// wanted pulse pending; see coro/executor.hpp). Strictly single-threaded —
/// only the owning worker ever touches it — so no atomics. FIFO order is
/// load-bearing: a yielded node must requeue *behind* every other ready
/// node, or a node that waits without reading the pulses it holds would be
/// re-popped immediately and spin the worker without ever scheduling
/// anyone else.
class YieldQueue {
 public:
  /// `capacity` = ring size: a node is in at most one yield queue (yield is
  /// a RUNNING->READY transition by the running node itself), so n slots
  /// can never overflow.
  explicit YieldQueue(std::size_t capacity)
      : buf_(next_pow2(capacity + 1)), mask_(buf_.size() - 1) {}

  bool empty() const { return head_ == tail_; }

  void push(std::uint32_t v) {
    COLEX_ASSERT(tail_ - head_ <= mask_);  // capacity contract (see ctor)
    buf_[tail_ & mask_] = v;
    ++tail_;
  }

  bool pop(std::uint32_t& out) {
    if (head_ == tail_) return false;
    out = buf_[head_ & mask_];
    ++head_;
    return true;
  }

 private:
  std::vector<std::uint32_t> buf_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace colex::coro
