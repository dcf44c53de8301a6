// Fault-injection harness for the overload-resilience tests and bench.
//
// A process-wide singleton of hooks the datapath consults at two choke
// points: the worker loop top (stall a chosen worker) and mbuf
// allocation pressure (hoard segments so a pool runs dry). Everything is
// gated behind one static relaxed atomic bool: production paths pay a
// single predicted-not-taken branch, and when the harness was never
// enabled (the default) nothing else is touched.
//
// Enabling: tests call instance().set_enabled(true); setting the
// NNFV_FAULT_INJECT environment variable to a non-empty value other
// than "0" enables it at first use (CI / manual experiments).
//
// Stall semantics: stall_worker(i) arms a stall that captures exactly
// one thread — the next thread to pass worker i's loop-top hook blocks
// inside maybe_stall() until release_stall() or until the executor's
// abort predicate fires (shutdown or watchdog supersession). A respawned
// worker passes through the hook untouched, so a watchdog recovery test
// observes exactly one captured and one healthy thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace nnfv::packet {
class MbufPool;
struct MbufSegment;
}  // namespace nnfv::packet

namespace nnfv::exec {

class FaultInjector {
 public:
  /// Process-wide instance (leaked singleton; hooks may run during
  /// static destruction of test fixtures).
  static FaultInjector& instance();

  /// True when the harness is enabled. Inline relaxed load — the only
  /// cost fault-injection adds to production paths.
  static bool active() {
    return active_flag().load(std::memory_order_relaxed);
  }

  void set_enabled(bool on);

  /// Disarms every fault and releases captured threads. Leaves the
  /// enabled flag untouched.
  void reset();

  // --- worker stall ------------------------------------------------------
  /// Arms a stall for worker `index` (captures the next thread to pass
  /// that worker's loop-top hook).
  void stall_worker(std::size_t index);
  void release_stall();
  /// Threads currently blocked inside maybe_stall().
  std::size_t stalled_threads() const;
  /// Executor hook. Blocks while the stall stays armed and `abort`
  /// (shutdown / supersession predicate) returns false.
  void maybe_stall(std::size_t index, const std::function<bool()>& abort);

  // --- mbuf-pool exhaustion ----------------------------------------------
  /// Allocates and holds `count` full-size segments from `pool`, so
  /// later allocations overflow to the heap path (or, for a non-growing
  /// pool, exhaust the prealloc deterministically).
  void hoard_segments(packet::MbufPool& pool, std::size_t count);
  /// Returns every hoarded segment to its pool.
  void release_hoard();
  std::size_t hoarded() const;

 private:
  FaultInjector();
  static std::atomic<bool>& active_flag();

  mutable std::mutex mutex_;
  // Stall state. `captured` stays true after the stalled thread is
  // released so one arming captures at most one thread.
  bool stall_armed_ = false;
  bool stall_captured_ = false;
  std::size_t stall_index_ = 0;
  std::atomic<std::size_t> stalled_threads_{0};
  std::vector<packet::MbufSegment*> hoard_;
};

}  // namespace nnfv::exec
