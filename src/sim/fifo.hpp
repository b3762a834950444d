// The simulator's one FIFO container: a queue on a power-of-two ring
// buffer. Channels keep their in-flight items in it, and so do the inboxes
// of content-carrying networks and the causal-depth probe.
//
// It allocates nothing until its first push and grows by doubling. Once it
// drains it gives back any buffer above kRetained slots: Algorithm 2 relays
// a CCW backlog of hundreds of pulses in one react, and a grow-only buffer
// would keep every such burst's memory for the rest of the run.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

#include "util/contracts.hpp"

namespace colex::sim {

template <typename T>
class Fifo {
 public:
  /// The largest buffer a drained queue keeps.
  static constexpr std::size_t kRetained = 16;

  Fifo() = default;

  /// Copies the live items in order; an empty queue copies no buffer.
  Fifo(const Fifo& other) : size_(other.size_) {
    if (size_ == 0) return;
    allocate(std::max(kInitial, std::bit_ceil(size_)));
    for (std::size_t i = 0; i < size_; ++i) buf_[i] = other[i];
  }

  Fifo(Fifo&& other) noexcept
      : buf_(std::move(other.buf_)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}

  Fifo& operator=(Fifo other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots currently allocated: 0, or a power of two.
  std::size_t capacity() const { return capacity_; }

  /// The i-th item from the front.
  const T& operator[](std::size_t i) const {
    COLEX_ASSERT(i < size_);
    return buf_[(head_ + i) & (capacity_ - 1)];
  }

  const T& front() const {
    COLEX_ASSERT(size_ != 0);
    return buf_[head_];
  }

  void push_back(T item) {
    if (size_ == capacity_) grow();
    buf_[(head_ + size_) & (capacity_ - 1)] = std::move(item);
    ++size_;
  }

  /// Queues `item` right behind the front item, which stays first.
  void insert_second(T item) {
    COLEX_ASSERT(size_ != 0);
    if (size_ == capacity_) grow();
    const std::size_t mask = capacity_ - 1;
    const std::size_t second = head_;
    head_ = (head_ - 1) & mask;
    buf_[head_] = std::move(buf_[second]);
    buf_[second] = std::move(item);
    ++size_;
  }

  T pop_front() {
    COLEX_ASSERT(size_ != 0);
    T item = std::move(buf_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    if (--size_ == 0 && capacity_ > kRetained) *this = Fifo();
    return item;
  }

  /// Drops every item and the buffer with them.
  void clear() { *this = Fifo(); }

 private:
  /// Slots allocated by the first push.
  static constexpr std::size_t kInitial = 4;

  void allocate(std::size_t capacity) {
    buf_.reset(new T[capacity]);
    capacity_ = capacity;
    head_ = 0;
  }

  /// Doubles a full buffer; its items run from head_ to the end of the
  /// buffer, then from the start up to head_.
  void grow() {
    Fifo bigger;
    bigger.allocate(capacity_ == 0 ? kInitial : 2 * capacity_);
    T* const buf = buf_.get();
    std::move(buf, buf + head_,
              std::move(buf + head_, buf + capacity_, bigger.buf_.get()));
    bigger.size_ = size_;
    *this = std::move(bigger);
  }

  std::unique_ptr<T[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace colex::sim
