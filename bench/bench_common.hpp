// Shared helpers for the reproduction benches: the IPsec-CPE graph of the
// paper's validation section and the iPerf-style saturation measurement.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "core/node.hpp"
#include "nffg/nffg.hpp"
#include "packet/mbuf.hpp"
#include "traffic/source.hpp"
#include "util/strings.hpp"

namespace nnfv::bench {

inline constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
inline constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

/// lan -> <nf> -> wan chain with return rules — the CPE service graph.
inline nffg::NfFg chain_graph(const std::string& id, const std::string& type,
                              std::optional<virt::BackendKind> hint = {}) {
  nffg::NfFg graph;
  graph.id = id;
  graph.add_nf("nf", type).backend_hint = hint;
  graph.add_endpoint("lan", "eth0");
  graph.add_endpoint("wan", "eth1");
  graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("nf", 0));
  graph.connect("r2", nffg::nf_port("nf", 1), nffg::endpoint_ref("wan"));
  graph.connect("r3", nffg::endpoint_ref("wan"), nffg::nf_port("nf", 1));
  graph.connect("r4", nffg::nf_port("nf", 0), nffg::endpoint_ref("lan"));
  return graph;
}

/// The validation-section NF: Strongswan-like ESP tunnel endpoint.
/// `esp_transform` is "gcm" (RFC 4106, the default) or "cbc-hmac".
inline nffg::NfFg ipsec_cpe_graph(const std::string& id,
                                  std::optional<virt::BackendKind> hint,
                                  const std::string& esp_transform = "gcm") {
  nffg::NfFg graph = chain_graph(id, "ipsec", hint);
  graph.nfs[0].config = {
      {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
      {"spi_out", "1001"},          {"spi_in", "2002"},
      {"enc_key", kEncKey},         {"auth_key", kAuthKey},
      {"esp_transform", esp_transform}};
  return graph;
}

/// A node whose NF hops run through the service-time model in simulated
/// time: what the reproduction benches (Table 1, Figure 1, chains,
/// placement, sharing) measure. Their JSON says so (mark_modelled()).
inline core::UniversalNodeConfig modelled_config() {
  core::UniversalNodeConfig config;
  config.modelled_timing = true;
  return config;
}

struct SaturationResult {
  double goodput_mbps = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t offered = 0;
  /// System-allocator events (mbuf slab growths + oversize heap
  /// segments) per delivered packet inside the measurement window. The
  /// zero-copy acceptance gate: 0 in steady state — the warmup grows the
  /// pools to the working set, after which every frame recycles.
  double allocs_per_packet = 0.0;
};

/// Pool-level heap events so far: how often the mbuf pools touched the
/// system allocator (see MbufPoolStats).
inline std::uint64_t pool_heap_events() {
  const packet::MbufPoolStats stats = packet::MbufPool::global_stats();
  return stats.slab_allocs + stats.heap_allocs;
}

/// Saturates eth0 with `payload_bytes` UDP datagrams and counts frames
/// leaving eth1 inside [warmup, warmup+duration) of simulated time, so
/// `node` must be built with modelled_config(). Goodput is reported on
/// the *inner* payload, matching the paper's iPerf methodology.
/// `burst_width` > 1 accumulates that many frames and injects them as
/// one PacketBurst (a NIC RX burst), which is what lets the ESP endpoint
/// gather same-SA frames into multi-buffer GCM lanes; 1 keeps the
/// historic frame-at-a-time ingress.
inline SaturationResult measure_saturation(core::UniversalNode& node,
                                           std::size_t payload_bytes,
                                           double offered_pps,
                                           sim::SimTime warmup,
                                           sim::SimTime duration,
                                           std::size_t burst_width = 1) {
  std::uint64_t delivered = 0;
  (void)node.set_egress("eth1", [&](packet::PacketBuffer&&) {
    const sim::SimTime now = node.simulator().now();
    if (now >= warmup && now < warmup + duration) ++delivered;
  });
  // Snapshot the pool heap-event counters at the measurement-window
  // edges, so allocs_per_packet ignores the warmup (where slab growth to
  // the working set is expected) and the drain tail.
  std::uint64_t heap_events_start = 0;
  std::uint64_t heap_events_end = 0;
  node.simulator().schedule_at(warmup,
                               [&]() { heap_events_start = pool_heap_events(); });
  node.simulator().schedule_at(warmup + duration,
                               [&]() { heap_events_end = pool_heap_events(); });

  traffic::UdpSourceConfig config;
  config.payload_bytes = payload_bytes;
  config.packets_per_second = offered_pps;
  config.stop = warmup + duration;
  packet::PacketBurst pending;
  traffic::UdpSource source(
      node.simulator(), config, [&](packet::PacketBuffer&& frame) {
        if (burst_width <= 1) {
          (void)node.inject("eth0", std::move(frame));
          return;
        }
        pending.push_back(std::move(frame));
        if (pending.size() >= burst_width) {
          (void)node.inject_burst("eth0", std::move(pending));
          pending.clear();
        }
      });
  source.begin();
  if (burst_width > 1) {
    // Flush the sub-width tail once the source stops, so the last few
    // frames of the offered load are not silently dropped at the edge.
    node.simulator().schedule_at(config.stop, [&]() {
      if (!pending.empty()) {
        (void)node.inject_burst("eth0", std::move(pending));
        pending.clear();
      }
    });
  }
  node.simulator().run_until(warmup + duration + 50 * sim::kMillisecond);

  SaturationResult result;
  result.delivered = delivered;
  result.offered = source.sent_packets();
  result.goodput_mbps = static_cast<double>(delivered) *
                        static_cast<double>(payload_bytes) * 8.0 /
                        (static_cast<double>(duration) / 1e9) / 1e6;
  result.allocs_per_packet =
      delivered > 0
          ? static_cast<double>(heap_events_end - heap_events_start) /
                static_cast<double>(delivered)
          : 0.0;
  return result;
}

/// Highest offered rate (pps) the datapath delivers with <1% loss —
/// binary search, like an adaptive iPerf TCP run. `deploy` must build a
/// fresh node per trial (state such as queues must not leak across
/// trials); returns goodput at the found rate.
template <typename MakeNode>
inline double measure_capacity_mbps(MakeNode make_node,
                                    std::size_t payload_bytes,
                                    double lo_pps, double hi_pps,
                                    sim::SimTime warmup,
                                    sim::SimTime duration) {
  double best = 0.0;
  for (int iter = 0; iter < 12 && hi_pps - lo_pps > lo_pps * 0.01; ++iter) {
    const double rate = (lo_pps + hi_pps) / 2.0;
    auto node = make_node();
    if (node == nullptr) return -1.0;
    SaturationResult result =
        measure_saturation(*node, payload_bytes, rate, warmup, duration);
    const double expected =
        rate * (static_cast<double>(duration) / 1e9);
    if (static_cast<double>(result.delivered) >= 0.99 * expected) {
      best = result.goodput_mbps;
      lo_pps = rate;
    } else {
      hi_pps = rate;
    }
  }
  return best;
}

}  // namespace nnfv::bench
