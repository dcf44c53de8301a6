// Pooled packet-buffer memory, modelled on DPDK's rte_mbuf: fixed-size
// cache-aligned segments recycled through per-worker-slot pools, so the
// steady-state datapath allocates zero heap memory per packet.
//
// Layout of one segment (stride kSegmentStride, 64-byte aligned):
//
//   [ MbufSegment header | ..... data region (kDataCapacity bytes) ..... ]
//
// PacketBuffer carves the data region into headroom | packet | tailroom
// and adjusts offsets in place for encap/decap (see buffer.hpp).
//
// Ownership and threading:
//  * Each worker slot (exec::current_worker_slot(), 0 = control/inline)
//    owns one pool. A pool's local free list is only touched by its
//    owning slot's thread, so steady-state alloc/free is a pointer swap
//    with no atomics beyond the segment refcount.
//  * A buffer freed on a different slot than it was allocated on is
//    pushed onto the owning pool's MPSC free stack (Treiber push; the
//    owner drains it wholesale with exchange(nullptr), so there is no
//    ABA window). This is the "cross-worker return" path for frames that
//    one thread builds and submits and a datapath worker frees.
//  * When a pool runs dry it first drains the foreign stack, then grows
//    by one slab (counted in stats.slab_allocs). Frames larger than
//    kDataCapacity get a dedicated heap segment (counted in
//    stats.heap_allocs, freed with operator delete). Allocation never
//    fails.
//
// The per-slot pool registry is a leaked singleton: segments handed to
// PacketBuffers must outlive every static destructor that might still
// hold a frame, so the pools (and their slabs) are intentionally never
// destroyed. Standalone pools can still be constructed for tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "exec/worker_slot.hpp"

namespace nnfv::packet {

class MbufPool;

/// Per-segment header, refcounted for PacketBuffer::clone(). Lives at
/// the front of the 64-byte-aligned segment; `data()` is the byte region
/// PacketBuffer slices into headroom | packet | tailroom.
struct alignas(64) MbufSegment {
  std::atomic<std::uint32_t> refcount{1};
  std::uint32_t capacity = 0;   ///< usable data bytes after this header
  MbufPool* owner = nullptr;    ///< pool to return to; null = plain heap
  MbufSegment* next = nullptr;  ///< free-list link (only while free)

  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  [[nodiscard]] const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
};

static_assert(sizeof(MbufSegment) == 64, "segment header must fill one line");

/// Monotonic pool counters. `slab_allocs + heap_allocs` is the number of
/// times the pool touched the system allocator — the quantity the bench
/// gate `allocs_per_packet` requires to stay flat in steady state.
struct MbufPoolStats {
  std::uint64_t segment_allocs = 0;     ///< alloc() calls served
  std::uint64_t segment_frees = 0;      ///< segments returned (any path)
  std::uint64_t slab_allocs = 0;        ///< slab growths (heap events)
  std::uint64_t heap_allocs = 0;        ///< oversize one-off segments
  std::uint64_t cross_worker_frees = 0; ///< returns via the MPSC stack
};

class MbufPool {
 public:
  /// Segment stride: one header line + 2496 data bytes. Covers a
  /// 128-byte-headroom frame up to ~2.3 KB — every frame the simulated
  /// 1500-MTU datapath produces, plus ESP expansion — in one segment.
  static constexpr std::size_t kSegmentStride = 2560;
  static constexpr std::size_t kDataCapacity =
      kSegmentStride - sizeof(MbufSegment);
  /// Segments added per slab growth.
  static constexpr std::size_t kDefaultSlabSegments = 256;

  /// `slab_segments == 0` disables slab growth entirely: every alloc
  /// beyond the prealloc falls through to the heap path (tests use this
  /// to exercise overflow accounting deterministically).
  explicit MbufPool(std::size_t prealloc_segments = 0,
                    std::size_t slab_segments = kDefaultSlabSegments);
  ~MbufPool();
  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;

  /// Pops a segment sized for `capacity` data bytes; refcount == 1.
  /// Oversize requests (> kDataCapacity) or an exhausted non-growing
  /// pool get a dedicated heap segment. Never returns null.
  MbufSegment* alloc(std::size_t capacity);

  /// Burst alloc: fills `out[0..n)`, amortising the free-list lock to
  /// one acquisition. All segments have kDataCapacity capacity.
  void alloc_burst(MbufSegment** out, std::size_t n);

  /// Returns a segment whose refcount has reached zero. Routes to the
  /// local free list, the MPSC stack (caller on a foreign slot), or
  /// operator delete (heap-backed segment).
  static void free_segment(MbufSegment* seg);

  /// Burst free of same-pool segments (pool == owner of each).
  static void free_burst(MbufSegment** segs, std::size_t n);

  [[nodiscard]] MbufPoolStats stats() const;

  /// Pool owned by `slot`'s thread (leaked singleton registry).
  static MbufPool& for_slot(std::size_t slot);
  /// Pool of the calling thread's slot.
  static MbufPool& local() {
    return for_slot(exec::current_worker_slot());
  }
  /// Sum of stats() across all slot pools.
  static MbufPoolStats global_stats();

 private:
  std::size_t pop_local(std::size_t n, MbufSegment** out);
  void drain_foreign();
  void grow_slab();
  void return_local(MbufSegment* seg);
  void return_foreign(MbufSegment* seg);
  static MbufSegment* heap_segment(std::size_t capacity);

  // The owning slot's thread is the only free-list consumer, but slot 0
  // (control) may be entered from several non-worker threads, so the
  // local list stays under a mutex. It is uncontended in steady state.
  mutable std::mutex mutex_;
  MbufSegment* free_list_ = nullptr;  // guarded by mutex_
  std::size_t slab_segments_;
  MbufPoolStats stats_;  // guarded by mutex_
  std::vector<void*> slabs_;  // guarded by mutex_; freed in ~MbufPool

  /// Cross-worker returns: lock-free Treiber push by foreign threads,
  /// exchange(nullptr) drain by the owner.
  std::atomic<MbufSegment*> foreign_free_{nullptr};
  std::atomic<std::uint64_t> foreign_frees_{0};
};

}  // namespace nnfv::packet
