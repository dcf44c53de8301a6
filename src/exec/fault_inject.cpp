#include "exec/fault_inject.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "packet/mbuf.hpp"

namespace nnfv::exec {

std::atomic<bool>& FaultInjector::active_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector* injector = new FaultInjector();  // leaked singleton
  return *injector;
}

FaultInjector::FaultInjector() {
  const char* env = std::getenv("NNFV_FAULT_INJECT");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    active_flag().store(true, std::memory_order_relaxed);
  }
}

void FaultInjector::set_enabled(bool on) {
  active_flag().store(on, std::memory_order_relaxed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  stall_armed_ = false;
  stall_captured_ = false;
  for (packet::MbufSegment* seg : hoard_) {
    seg->refcount.store(0, std::memory_order_relaxed);
    packet::MbufPool::free_segment(seg);
  }
  hoard_.clear();
}

void FaultInjector::stall_worker(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  stall_armed_ = true;
  stall_captured_ = false;
  stall_index_ = index;
}

void FaultInjector::release_stall() {
  std::lock_guard<std::mutex> lock(mutex_);
  stall_armed_ = false;
}

std::size_t FaultInjector::stalled_threads() const {
  return stalled_threads_.load(std::memory_order_acquire);
}

void FaultInjector::maybe_stall(std::size_t index,
                                const std::function<bool()>& abort) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stall_armed_ || stall_captured_ || stall_index_ != index) return;
    stall_captured_ = true;  // one arming captures exactly one thread
  }
  stalled_threads_.fetch_add(1, std::memory_order_acq_rel);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!stall_armed_) break;
    }
    if (abort()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stalled_threads_.fetch_sub(1, std::memory_order_acq_rel);
}

void FaultInjector::hoard_segments(packet::MbufPool& pool,
                                   std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  hoard_.reserve(hoard_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    hoard_.push_back(pool.alloc(packet::MbufPool::kDataCapacity));
  }
}

void FaultInjector::release_hoard() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (packet::MbufSegment* seg : hoard_) {
    seg->refcount.store(0, std::memory_order_relaxed);
    packet::MbufPool::free_segment(seg);
  }
  hoard_.clear();
}

std::size_t FaultInjector::hoarded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hoard_.size();
}

}  // namespace nnfv::exec
