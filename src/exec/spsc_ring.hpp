// Bounded lock-free single-producer/single-consumer ring.
//
// The ingress queue of the sharded datapath (ROADMAP item 1): the
// submitting control thread is the single producer of each worker's
// ring, and that worker is its single consumer. Classic Lamport queue
// with cache-line-separated head/tail and cached opposite indexes so the
// steady state touches one shared cache line per batch, not per element.
// Capacity is rounded up to a power of two; one slot is sacrificed to
// distinguish full from empty.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace nnfv::exec {

#ifdef __cpp_lib_hardware_interference_size
inline constexpr std::size_t kCacheLine =
    std::hardware_destructive_interference_size;
#else
inline constexpr std::size_t kCacheLine = 64;
#endif

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t size = 2;
    while (size < capacity + 1) size <<= 1;
    mask_ = size - 1;
    slots_.resize(size);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Usable capacity (one slot is reserved).
  std::size_t capacity() const { return slots_.size() - 1; }

  /// Producer side. Returns false when full (caller decides: drop or spin).
  bool push(T&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & mask_;
    if (next == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (next == head_cache_) return false;
    }
    slots_[tail] = std::move(item);
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Producer side: push as many items as fit, starting at `begin`.
  /// Returns the number pushed; one release store for the whole batch.
  std::size_t push_batch(T* items, std::size_t count) {
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t pushed = 0;
    while (pushed < count) {
      const std::size_t next = (tail + 1) & mask_;
      if (next == head_cache_) {
        head_cache_ = head_.load(std::memory_order_acquire);
        if (next == head_cache_) break;
      }
      slots_[tail] = std::move(items[pushed]);
      tail = next;
      ++pushed;
    }
    if (pushed > 0) tail_.store(tail, std::memory_order_release);
    return pushed;
  }

  /// Consumer side. Returns false when empty.
  bool pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head]);
    head_.store((head + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Consumer side: drain up to `max` items into `out` (appended).
  /// One release store for the whole batch.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t popped = 0;
    while (popped < max) {
      if (head == tail_cache_) {
        tail_cache_ = tail_.load(std::memory_order_acquire);
        if (head == tail_cache_) break;
      }
      out.push_back(std::move(slots_[head]));
      head = (head + 1) & mask_;
      ++popped;
    }
    if (popped > 0) head_.store(head, std::memory_order_release);
    return popped;
  }

  /// Approximate occupancy; exact only when both sides are quiescent.
  std::size_t size_approx() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (tail - head) & mask_;
  }

  /// Occupancy as seen by the producer thread: its own tail is exact,
  /// and the consumer can only advance head, so on the producer thread
  /// the result is an overestimate bounded by capacity() — the property
  /// watermark shedding needs (a stale read errs toward shedding, never
  /// toward admitting past the mark). From any other thread this is just
  /// another approximation.
  std::size_t producer_size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    return (tail - head) & mask_;
  }

  bool empty_approx() const { return size_approx() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;  // consumer-local
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;  // producer-local
};

}  // namespace nnfv::exec
