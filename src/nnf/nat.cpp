#include "nnf/nat.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <shared_mutex>

#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "util/byteorder.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {

PortPool::PortPool(std::uint16_t first, std::size_t count)
    : first_(first), count_(count), bits_((count + 63) / 64, 0) {}

std::uint16_t PortPool::allocate() {
  if (used_ == count_) return 0;
  // Scan from the cursor, skipping fully-used 64-port words.
  const std::size_t words = bits_.size();
  std::uint32_t bit = cursor_;
  for (std::size_t scanned = 0; scanned <= words; ++scanned) {
    const std::size_t word = bit / 64;
    // Mask off bits below the cursor within the first word.
    std::uint64_t free_mask = ~bits_[word];
    if (bit % 64 != 0) free_mask &= ~0ULL << (bit % 64);
    if (word == words - 1 && count_ % 64 != 0) {
      free_mask &= (1ULL << (count_ % 64)) - 1;  // clip past-the-end bits
    }
    if (free_mask != 0) {
      const auto idx =
          static_cast<std::uint32_t>(word * 64 +
                                     std::countr_zero(free_mask));
      bits_[idx / 64] |= 1ULL << (idx % 64);
      ++used_;
      cursor_ = static_cast<std::uint32_t>((idx + 1) % count_);
      return static_cast<std::uint16_t>(first_ + idx);
    }
    bit = static_cast<std::uint32_t>(((word + 1) % words) * 64);
  }
  return 0;  // unreachable: used_ < count_ guarantees a free bit
}

void PortPool::release(std::uint16_t port) {
  if (port < first_) return;
  const std::uint32_t idx = static_cast<std::uint32_t>(port - first_);
  if (idx >= count_) return;
  const std::uint64_t mask = 1ULL << (idx % 64);
  if (bits_[idx / 64] & mask) {
    bits_[idx / 64] &= ~mask;
    --used_;
  }
}

bool PortPool::in_use(std::uint16_t port) const {
  if (port < first_) return false;
  const std::uint32_t idx = static_cast<std::uint32_t>(port - first_);
  if (idx >= count_) return false;
  return (bits_[idx / 64] >> (idx % 64)) & 1;
}

namespace {

/// Offsets of the fields NAT rewrites, relative to the L3 header.
struct L3View {
  std::size_t l3_off = 0;
  packet::Ipv4Header ip;
};

util::Result<L3View> locate_ip(packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  if (!eth) return eth.status();
  if (eth->ether_type != packet::kEtherTypeIpv4) {
    return util::invalid_argument("not IPv4");
  }
  auto ip = packet::parse_ipv4(frame.data().subspan(eth->wire_size()));
  if (!ip) return ip.status();
  return L3View{eth->wire_size(), ip.value()};
}

/// Writes a new src/dst address + transport port into the frame, then fixes
/// checksums.
void rewrite(packet::PacketBuffer& frame, const L3View& view, bool rewrite_src,
             packet::Ipv4Address new_addr, std::uint16_t new_port) {
  frame.unshare();  // flooded replicas share bytes until first write
  packet::Ipv4Header ip = view.ip;
  if (rewrite_src) {
    ip.src = new_addr;
  } else {
    ip.dst = new_addr;
  }
  packet::write_ipv4(ip, frame.data().subspan(view.l3_off, ip.header_size()));
  const std::size_t l4_off = view.l3_off + ip.header_size();
  if (ip.protocol == packet::kIpProtoTcp ||
      ip.protocol == packet::kIpProtoUdp) {
    // Port field offset: src at 0, dst at 2.
    const std::size_t port_off = l4_off + (rewrite_src ? 0 : 2);
    util::store_be16(frame.data().data() + port_off, new_port);
  } else if (ip.protocol == packet::kIpProtoIcmp) {
    // Rewrite the echo identifier.
    util::store_be16(frame.data().data() + l4_off + 4, new_port);
  }
  packet::fix_checksums(frame);
}

/// The by_external key port: for ICMP echo replies the identifier is
/// carried in src_port by our extractor; the NAT allocated it as the
/// "external port".
std::uint16_t external_key_port(const packet::FiveTuple& tuple) {
  return tuple.protocol == packet::kIpProtoIcmp ? tuple.src_port
                                                : tuple.dst_port;
}

}  // namespace

util::Status Nat::configure(ContextId ctx, const NfConfig& config) {
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  ContextState& state = state_[ctx];
  std::unique_lock<std::shared_mutex> lock(state.mutex);
  for (const auto& [key, value] : config) {
    if (key == "external_ip") {
      auto addr = packet::Ipv4Address::parse(value);
      if (!addr.has_value()) {
        return util::invalid_argument("nat: bad external_ip '" + value + "'");
      }
      state.external_ip = *addr;
      state.external_ip_set = true;
    } else if (key == "idle_timeout_ms") {
      std::uint64_t ms = 0;
      if (!util::parse_u64(value, ms)) {
        return util::invalid_argument("nat: bad idle_timeout_ms '" + value +
                                      "'");
      }
      state.idle_timeout = static_cast<sim::SimTime>(ms) * sim::kMillisecond;
    } else {
      return util::invalid_argument("nat: unknown config key '" + key + "'");
    }
  }
  return util::Status::ok();
}

void Nat::set_worker_count(std::size_t workers) {
  worker_count_ = std::min<std::size_t>(workers, exec::kMaxWorkers);
  // Drop port pools that have no live allocation so they re-slice for
  // the new worker count on next use; pools holding sessions keep their
  // old slicing (release() depends on the slice boundaries).
  for (auto& [ctx, state] : state_) {
    std::unique_lock<std::shared_mutex> lock(state.mutex);
    for (auto it = state.ports.begin(); it != state.ports.end();) {
      const bool empty =
          std::all_of(it->second.begin(), it->second.end(),
                      [](const PortPool& pool) { return pool.used() == 0; });
      it = empty ? state.ports.erase(it) : std::next(it);
    }
  }
}

void Nat::sweep(ContextState& state, sim::SimTime now) {
  for (auto it = state.by_original.begin(); it != state.by_original.end();) {
    auto next = std::next(it);
    if (session_stale(state, it->second, now)) evict(state, it);
    it = next;
  }
  state.last_sweep = now;
}

void Nat::evict(ContextState& state, SessionMap::iterator it) {
  state.by_external.erase({it->first.protocol, it->second.external_port});
  auto pools = state.ports.find(it->first.protocol);
  if (pools != state.ports.end()) {
    // release() is a no-op on every slice but the owning one.
    for (PortPool& pool : pools->second) {
      pool.release(it->second.external_port);
    }
  }
  state.by_original.erase(it);
}

util::Result<std::uint16_t> Nat::allocate_port(ContextState& state,
                                               std::uint8_t protocol) {
  // O(1) bitmap allocation (see PortPool); the old code linearly probed up
  // to 64512 map entries when the pool ran hot.
  std::vector<PortPool>& slices = state.ports[protocol];
  if (slices.empty()) {
    // Slot 0 (control/inline thread) plus one slice per worker. With no
    // workers declared this is one slice spanning the whole range — the
    // exact single-threaded behaviour.
    const std::size_t n = worker_count_ + 1;
    const std::size_t per = PortPool::kPorts / n;
    std::uint16_t first = PortPool::kFirstPort;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t count =
          i + 1 == n ? PortPool::kPorts - per * (n - 1) : per;
      slices.emplace_back(first, count);
      if (i + 1 < n) first = static_cast<std::uint16_t>(first + count);
    }
  }
  const std::size_t slot =
      std::min<std::size_t>(exec::current_worker_slot(), slices.size() - 1);
  if (const std::uint16_t port = slices[slot].allocate(); port != 0) {
    return port;
  }
  // This worker's slice ran dry: steal from the others. Safe because
  // allocation only happens under the context's unique lock.
  for (PortPool& pool : slices) {
    if (const std::uint16_t port = pool.allocate(); port != 0) return port;
  }
  return util::resource_exhausted("nat: port pool exhausted");
}

std::vector<NfOutput> Nat::process(ContextId ctx, NfPortIndex in_port,
                                   sim::SimTime now,
                                   packet::PacketBuffer&& frame) {
  return process_burst(ctx, in_port, now, packet::burst_of(std::move(frame)));
}

std::vector<NfOutput> Nat::process_burst(ContextId ctx, NfPortIndex in_port,
                                         sim::SimTime now,
                                         packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  out.reserve(burst.size());
  for (packet::PacketBuffer& frame : burst) {
    translate(ctx, in_port, now, std::move(frame), out);
  }
  burst.clear();
  return out;
}

void Nat::translate(ContextId ctx, NfPortIndex in_port, sim::SimTime now,
                    packet::PacketBuffer&& frame, std::vector<NfOutput>& out) {
  ++counters_.in_packets;
  if (!has_context(ctx) || in_port >= 2) {
    ++counters_.errors;
    return;
  }
  auto state_it = state_.find(ctx);
  if (state_it == state_.end() || !state_it->second.external_ip_set) {
    ++counters_.dropped;
    return;
  }
  ContextState& state = state_it->second;
  auto view = locate_ip(frame);
  if (!view) {
    // Non-IP traffic passes through untranslated (L2 bridging behaviour).
    out.push_back(NfOutput{in_port == 0 ? 1u : 0u, std::move(frame)});
    ++counters_.out_packets;
    return;
  }
  auto tuple =
      packet::extract_five_tuple(frame.data().subspan(view->l3_off));
  if (!tuple) {
    ++counters_.dropped;
    return;
  }

  // Fast path: a fresh session hit with no sweep due touches only
  // atomics, so it runs under the shared lock — workers carrying
  // different flows proceed in parallel.
  {
    std::shared_lock<std::shared_mutex> lock(state.mutex);
    if (!sweep_due(state, now)) {
      if (in_port == 0) {
        auto it = state.by_original.find(tuple.value());
        if (it != state.by_original.end() &&
            !session_stale(state, it->second, now)) {
          it->second.last_seen = now;
          rewrite(frame, view.value(), /*rewrite_src=*/true,
                  state.external_ip, it->second.external_port);
          out.push_back(NfOutput{1, std::move(frame)});
          ++counters_.out_packets;
          return;
        }
        // Miss or stale hit: fall through to the slow path.
      } else {
        if (!(tuple->dst_ip == state.external_ip)) {
          ++counters_.dropped;
          return;
        }
        auto ext = state.by_external.find(
            {tuple->protocol, external_key_port(tuple.value())});
        if (ext == state.by_external.end()) {
          ++counters_.dropped;
          return;
        }
        auto session = state.by_original.find(ext->second);
        if (session != state.by_original.end() &&
            !session_stale(state, session->second, now)) {
          session->second.last_seen = now;
          const packet::FiveTuple original = session->second.original;
          rewrite(frame, view.value(), /*rewrite_src=*/false,
                  original.src_ip, original.src_port);
          out.push_back(NfOutput{0, std::move(frame)});
          ++counters_.out_packets;
          return;
        }
        // Stale session: fall through to evict it under the unique lock.
      }
    }
  }

  // Slow path: session setup, stale eviction or the periodic sweep.
  std::unique_lock<std::shared_mutex> lock(state.mutex);
  if (sweep_due(state, now)) sweep(state, now);

  if (in_port == 0) {
    // Outbound: find or create a session.
    auto it = state.by_original.find(tuple.value());
    if (it != state.by_original.end() &&
        session_stale(state, it->second, now)) {
      evict(state, it);
      it = state.by_original.end();
    }
    if (it == state.by_original.end()) {
      auto port = allocate_port(state, tuple->protocol);
      if (!port) {
        ++counters_.dropped;
        return;
      }
      Session session{tuple.value(), port.value(), now};
      it = state.by_original.emplace(tuple.value(), session).first;
      state.by_external[{tuple->protocol, port.value()}] = tuple.value();
    }
    it->second.last_seen = now;
    rewrite(frame, view.value(), /*rewrite_src=*/true, state.external_ip,
            it->second.external_port);
    out.push_back(NfOutput{1, std::move(frame)});
    ++counters_.out_packets;
    return;
  }

  // Inbound: must match a tracked, fresh session and target the
  // external IP.
  if (!(tuple->dst_ip == state.external_ip)) {
    ++counters_.dropped;
    return;
  }
  auto ext = state.by_external.find(
      {tuple->protocol, external_key_port(tuple.value())});
  if (ext == state.by_external.end()) {
    ++counters_.dropped;
    return;
  }
  auto session = state.by_original.find(ext->second);
  if (session == state.by_original.end()) {
    state.by_external.erase(ext);
    ++counters_.dropped;
    return;
  }
  if (session_stale(state, session->second, now)) {
    evict(state, session);
    ++counters_.dropped;
    return;
  }
  session->second.last_seen = now;
  const packet::FiveTuple original = session->second.original;
  rewrite(frame, view.value(), /*rewrite_src=*/false, original.src_ip,
          original.src_port);
  out.push_back(NfOutput{0, std::move(frame)});
  ++counters_.out_packets;
}

util::Status Nat::remove_context(ContextId ctx) {
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  state_.erase(ctx);
  return util::Status::ok();
}

std::size_t Nat::session_count(ContextId ctx) const {
  auto it = state_.find(ctx);
  if (it == state_.end()) return 0;
  std::shared_lock<std::shared_mutex> lock(it->second.mutex);
  return it->second.by_original.size();
}

}  // namespace nnfv::nnf
