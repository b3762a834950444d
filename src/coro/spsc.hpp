// Single-producer/single-consumer pulse channels for the coroutine runtime
// (DESIGN.md "Coroutine runtime").
//
// The model's pulses are fully content-free (paper §2) and therefore
// fungible, so the ring buffer of a zero-byte payload degenerates to its
// produced/consumed counter pair alone. A channel never fills, never
// allocates, and recv is a counter compare+bump.
//
// Memory ordering: exactly one node sends on a channel and one node reads
// it, and each side's successive resumes are ordered by the executor's
// state word and deque hand-offs. So produce() is a relaxed load plus a
// release store of `produced` (no RMW), and the consumer's acquire load
// makes it visible. The lost-wakeup check of the sleep/wake protocol (see
// coro/executor.hpp) is paid once per resume, not once per pulse: settle()
// is a seq_cst RMW on `produced` that the sending node makes before it
// loads the receiver's state word, the other half of the receiver's
// seq_cst PARKED store and re-check. It is an RMW, not a fence, because
// GCC rejects atomic_thread_fence under -fsanitize=thread. The `consumed`
// counter is only ever touched by the owning node's coroutine, so relaxed
// loads and stores suffice there.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace colex::coro {

inline constexpr std::size_t kCacheLine = 64;

/// Smallest power of two >= `v` (and >= 2).
constexpr std::size_t next_pow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

/// One directed pulse channel: the degenerate (zero-byte payload) SPSC ring
/// buffer. Unbounded, allocation-free, 16 bytes. Not individually padded:
/// at n=10^6 nodes per-channel padding alone would cost ~256MB, so false
/// sharing is instead handled one level up — the executor packs a node's
/// two channels, state word, and wiring into a single cache-line-aligned
/// block (neighbors touch it only on send, which is already a coherence
/// miss by nature).
struct PulseChannel {
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};

  /// The single producer: deposit one pulse. A plain store, visible to the
  /// consumer at once; see the file header for the wakeup half.
  void produce() {
    produced.store(produced.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }

  /// The single producer: order every earlier produce() before the
  /// receiver-state load that follows (seq_cst RMW; see file header).
  void settle() { produced.fetch_add(0, std::memory_order_seq_cst); }

  /// Pulses waiting in the channel, read by the consumer. seq_cst: the
  /// post-PARKED re-check of the sleep/wake protocol needs it.
  std::uint64_t pending() const {
    return produced.load(std::memory_order_seq_cst) -
           consumed.load(std::memory_order_relaxed);
  }

  /// Consumer: take one pulse if available.
  bool try_consume() {
    const std::uint64_t c = consumed.load(std::memory_order_relaxed);
    if (produced.load(std::memory_order_acquire) == c) return false;
    consumed.store(c + 1, std::memory_order_relaxed);
    return true;
  }
};

}  // namespace colex::coro
