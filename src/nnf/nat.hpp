// Source NAT (masquerade) with connection tracking — the iptables NAT role.
//
// Port 0 = inside (private), port 1 = outside (public). Outbound packets
// get their source rewritten to the external IP and an allocated port;
// inbound packets matching a tracked connection are rewritten back and
// forwarded inside; unsolicited inbound traffic is dropped. Per-context
// conntrack tables and disjoint port pools make the NAT sharable across
// service graphs.
//
// Threading (docs/datapath.md §6): each context carries a shared_mutex.
// Steady-state packets (session hit, not stale, no sweep due) run under a
// shared lock and only touch atomics (last_seen, counters). Session
// creation, stale eviction and the periodic sweep take the unique lock.
// Port allocation draws from the calling worker's slice of the port
// range (set_worker_count()), so concurrent flow setup on different
// workers never fights over one allocation cursor.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "exec/worker_slot.hpp"
#include "nnf/network_function.hpp"
#include "packet/flow_key.hpp"
#include "util/atomics.hpp"
#include "util/sync.hpp"

namespace nnfv::nnf {

/// Allocation state for a contiguous slice of the NAT port range of one
/// protocol: a bitmap plus a rotating cursor. Allocation scans whole
/// 64-bit words from the cursor, so it skips 64 busy ports per load and
/// stays O(1) amortised even with the pool nearly exhausted (the old
/// code probed up to 64512 map entries); exhaustion itself is an O(1)
/// counter check.
class PortPool {
 public:
  static constexpr std::uint16_t kFirstPort = 1024;
  static constexpr std::size_t kPorts = 65536 - kFirstPort;

  /// The whole 1024..65535 range (single-threaded default).
  PortPool() : PortPool(kFirstPort, kPorts) {}
  /// A slice [first, first + count) of the range, one worker's share.
  PortPool(std::uint16_t first, std::size_t count);

  /// Next free port at or after the cursor (wrapping), or 0 if exhausted.
  std::uint16_t allocate();
  /// No-op for ports outside this slice, so an owner scan over all
  /// slices frees a port exactly once.
  void release(std::uint16_t port);
  [[nodiscard]] bool in_use(std::uint16_t port) const;
  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::uint16_t first_port() const { return first_; }
  [[nodiscard]] std::size_t capacity() const { return count_; }

 private:
  std::uint16_t first_ = kFirstPort;
  std::size_t count_ = kPorts;
  std::vector<std::uint64_t> bits_;  ///< 1 = in use
  std::size_t used_ = 0;
  std::uint32_t cursor_ = 0;  ///< bit index of the next candidate
};

class Nat : public NetworkFunction {
 public:
  Nat() = default;

  [[nodiscard]] std::string_view type() const override { return "nat"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }

  /// Config keys: "external_ip" (required before traffic),
  /// "idle_timeout_ms" (default 30000).
  util::Status configure(ContextId ctx, const NfConfig& config) override;

  /// Translates a burst frame by frame; translated frames leave on the
  /// other port, in order.
  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime now,
                                      packet::PacketBurst&& burst) override;

  /// Per-frame edge: a burst-of-1 call to process_burst.
  std::vector<NfOutput> process(ContextId ctx, NfPortIndex in_port,
                                sim::SimTime now,
                                packet::PacketBuffer&& frame) override;

  util::Status remove_context(ContextId ctx) override;

  /// Declares how many datapath workers will drive this NAT. Divides
  /// each per-protocol port pool into workers + 1 disjoint slices (slot
  /// 0 = the control/inline thread), so concurrent allocations never
  /// share a cursor. Must be called while quiesced; pools that already
  /// hold sessions keep their old slicing.
  void set_worker_count(std::size_t workers);

  [[nodiscard]] std::size_t session_count(ContextId ctx) const;
  [[nodiscard]] const NfCounters& counters() const { return counters_; }

 private:
  struct Session {
    packet::FiveTuple original;      ///< inside view, outbound direction
    std::uint16_t external_port = 0;
    /// Written under the shared lock by whichever worker carries the
    /// packet (outbound and inbound directions hash to different
    /// workers), hence atomic.
    util::Relaxed<sim::SimTime> last_seen{0};
  };

  struct ContextState {
    packet::Ipv4Address external_ip;
    bool external_ip_set = false;
    sim::SimTime idle_timeout = 30 * sim::kSecond;
    /// Outbound lookup: original tuple -> session.
    std::unordered_map<packet::FiveTuple, Session, packet::FiveTupleHash>
        by_original;
    /// Inbound lookup: (protocol, external port) -> original tuple.
    std::map<std::pair<std::uint8_t, std::uint16_t>, packet::FiveTuple>
        by_external;
    /// Per-worker-slot port slices per protocol, built lazily on first
    /// allocation (so they see the final worker count).
    std::map<std::uint8_t, std::vector<PortPool>> ports;
    /// Last time the full expiry sweep ran (sweeps are cadence-based
    /// now, not per-packet; staleness is also checked on every hit).
    sim::SimTime last_sweep = 0;
    /// Guards the three tables above; see the file comment.
    mutable util::SharedMutex mutex;
  };

  using SessionMap =
      std::unordered_map<packet::FiveTuple, Session, packet::FiveTupleHash>;

  [[nodiscard]] static bool session_stale(const ContextState& state,
                                          const Session& session,
                                          sim::SimTime now) {
    return now - session.last_seen.load() > state.idle_timeout;
  }
  [[nodiscard]] static bool sweep_due(const ContextState& state,
                                      sim::SimTime now) {
    return now - state.last_sweep >= state.idle_timeout;
  }

  /// Appends the translated `frame` to `out`, or drops it.
  void translate(ContextId ctx, NfPortIndex in_port, sim::SimTime now,
                 packet::PacketBuffer&& frame, std::vector<NfOutput>& out);
  /// Full-table sweep; requires the context's unique lock.
  void sweep(ContextState& state, sim::SimTime now);
  /// Removes one session (both maps + port); unique lock required.
  void evict(ContextState& state, SessionMap::iterator it);
  util::Result<std::uint16_t> allocate_port(ContextState& state,
                                            std::uint8_t protocol);

  /// Read-only during traffic (contexts are added/removed quiesced);
  /// per-context locking lives inside ContextState.
  std::map<ContextId, ContextState> state_;
  std::size_t worker_count_ = 0;
  NfCounters counters_;
};

}  // namespace nnfv::nnf
