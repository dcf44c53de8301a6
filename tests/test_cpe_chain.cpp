// The CPE chain on the assembled node: LSI-0 -> firewall -> NAT ->
// IPsec(GCM) -> eth1, and back. Two checks of the run-to-completion NF
// hops (docs/datapath.md §6):
//  * NodeHeapCalls: a warmed inline node makes no heap call between
//    inject_burst and egress, apart from the per-hop vectors the frozen
//    NetworkFunction::process_burst interface and the adaptation layer's
//    re-marked egress burst need;
//  * ShardedDatapath.CpeChainOnWorkersMatchesInline: the inline node is
//    the oracle for a 2-worker node carrying the same seeded traffic,
//    with a firewall update_nf racing the traffic. The TSan CI job pins
//    the ShardedDatapath suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/node.hpp"
#include "heap_counter.hpp"
#include "nnf/firewall.hpp"
#include "nnf/ipsec.hpp"
#include "nnf/nat.hpp"
#include "nnf/plugin.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "util/rng.hpp"

namespace nnfv {
namespace {

using packet::PacketBuffer;
using packet::PacketBurst;

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kLocalIp = "198.51.100.1";
constexpr const char* kPeerIp = "198.51.100.2";
constexpr const char* kExternalIp = "203.0.113.1";
constexpr std::size_t kPayloadOffset = 14 + 20 + 8;  // Eth + IPv4 + UDP

/// Wraps a built-in plugin so the test can read the function it creates.
template <typename Nf>
std::shared_ptr<nnf::NnfPlugin> exposing(
    const std::shared_ptr<nnf::NnfPlugin>& builtin, Nf** created) {
  return std::make_shared<nnf::SimpleNnfPlugin>(
      builtin->descriptor(), [builtin, created]() {
        auto function = builtin->create_function();
        if (function) *created = static_cast<Nf*>(function.value().get());
        return function;
      });
}

/// One tenant's lan -> fw -> nat -> vpn -> wan graph, with return rules.
nffg::NfFg cpe_graph() {
  nffg::NfFg g;
  g.id = "cpe";
  g.add_endpoint("lan", "eth0");
  g.add_endpoint("wan", "eth1");
  g.add_nf("fw", "firewall").config = {{"policy", "accept"},
                                       {"rule.1", "drop,any,any,udp,1900"}};
  g.add_nf("nat", "nat").config = {{"external_ip", kExternalIp}};
  g.add_nf("vpn", "ipsec").config = {
      {"local_ip", kLocalIp}, {"peer_ip", kPeerIp}, {"spi_out", "1001"},
      {"spi_in", "2002"},     {"enc_key", kEncKey}, {"esp_transform", "gcm"}};
  using nffg::endpoint_ref;
  using nffg::nf_port;
  g.connect("r1", endpoint_ref("lan"), nf_port("fw", 0));
  g.connect("r2", nf_port("fw", 1), nf_port("nat", 0));
  g.connect("r3", nf_port("nat", 1), nf_port("vpn", 0));
  g.connect("r4", nf_port("vpn", 1), endpoint_ref("wan"));
  g.connect("r5", endpoint_ref("wan"), nf_port("vpn", 1));
  g.connect("r6", nf_port("vpn", 0), nf_port("nat", 1));
  g.connect("r7", nf_port("nat", 0), nf_port("fw", 1));
  g.connect("r8", nf_port("fw", 0), endpoint_ref("lan"));
  return g;
}

/// A node carrying the CPE graph, its functions readable, and the frames
/// leaving each physical port in arrival order.
class CpeNode {
 public:
  explicit CpeNode(std::size_t workers)
      : node_(core::UniversalNodeConfig{.builtin_nnf_plugins = false,
                                        .datapath_workers = workers}) {
    auto& catalog = node_.catalog();
    EXPECT_TRUE(catalog
                    .register_plugin(
                        exposing(nnf::make_firewall_plugin(), &firewall))
                    .is_ok());
    EXPECT_TRUE(
        catalog.register_plugin(exposing(nnf::make_nat_plugin(), &nat))
            .is_ok());
    EXPECT_TRUE(
        catalog.register_plugin(exposing(nnf::make_ipsec_plugin(), &vpn))
            .is_ok());
    EXPECT_TRUE(node_.orchestrator().deploy(cpe_graph()).is_ok());
    for (const char* port : {"eth0", "eth1"}) {
      std::vector<PacketBuffer>* sink = &egress_[port];
      sink->reserve(kSinkRoom);
      EXPECT_TRUE(node_.set_egress(port, [this, sink](PacketBuffer&& frame) {
                         std::lock_guard<std::mutex> lock(mutex_);
                         sink->push_back(std::move(frame));
                       }).is_ok());
    }
  }

  core::UniversalNode& node() { return node_; }

  /// Frames that left `port` so far, in arrival order (drained first).
  std::vector<PacketBuffer> take(const std::string& port) {
    node_.drain_datapath();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PacketBuffer> frames = std::exchange(egress_[port], {});
    egress_[port].reserve(kSinkRoom);
    return frames;
  }

  nnf::Firewall* firewall = nullptr;
  nnf::Nat* nat = nullptr;
  nnf::IpsecEndpoint* vpn = nullptr;

 private:
  /// Collecting up to this many frames between take()s makes no heap call.
  static constexpr std::size_t kSinkRoom = 512;

  core::UniversalNode node_;
  std::mutex mutex_;
  std::map<std::string, std::vector<PacketBuffer>> egress_;
};

/// The remote end of the tunnel: seals downstream frames, opens upstream.
std::unique_ptr<nnf::IpsecEndpoint> make_gateway() {
  auto gateway = std::make_unique<nnf::IpsecEndpoint>();
  EXPECT_TRUE(gateway
                  ->configure(nnf::kDefaultContext,
                              {{"local_ip", kPeerIp},
                               {"peer_ip", kLocalIp},
                               {"spi_out", "2002"},
                               {"spi_in", "1001"},
                               {"enc_key", kEncKey},
                               {"esp_transform", "gcm"}})
                  .is_ok());
  return gateway;
}

/// A UDP frame whose payload starts with (flow, seq).
PacketBuffer make_frame(const std::string& src, std::uint16_t sport,
                        const std::string& dst, std::uint16_t dport,
                        std::uint32_t flow, std::uint32_t seq) {
  std::vector<std::uint8_t> payload(32, 0x5A);
  for (int i = 0; i < 4; ++i) {
    payload[i] = static_cast<std::uint8_t>(flow >> (24 - 8 * i));
    payload[4 + i] = static_cast<std::uint8_t>(seq >> (24 - 8 * i));
  }
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0x11);
  spec.eth_dst = packet::MacAddress::from_id(0x22);
  spec.ip_src = *packet::Ipv4Address::parse(src);
  spec.ip_dst = *packet::Ipv4Address::parse(dst);
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

std::uint32_t payload_u32(const PacketBuffer& frame, std::size_t at) {
  const std::uint8_t* p = frame.data().data() + kPayloadOffset + at;
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

// ---------------------------------------------------------------------------
// Heap calls on the warmed inline chain
// ---------------------------------------------------------------------------

TEST(NodeHeapCalls, WarmCpeChainBurst) {
  CpeNode cpe(0);
  constexpr std::size_t kBurst = 32;
  // Per NF hop (firewall, NAT, IPsec): the std::vector<NfOutput> that
  // process_burst returns, and the re-marked egress burst of the
  // adaptation layer (firewall, NAT) or the instance's egress regroup
  // (IPsec). LSI passes, adaptation demux and mark routing make none.
  constexpr std::uint64_t kBudget = 2 * 3;
  for (int round = 0; round < 8; ++round) {
    PacketBurst burst;
    burst.reserve(kBurst);
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      burst.push_back(make_frame("192.168.1.10",
                                 static_cast<std::uint16_t>(4000 + i % 8),
                                 "192.0.2.80", 5000, i % 8, i));
    }
    const std::uint64_t before = test::heap_calls();
    ASSERT_TRUE(cpe.node().inject_burst("eth0", std::move(burst)).is_ok());
    const std::uint64_t calls = test::heap_calls() - before;
    ASSERT_EQ(cpe.take("eth1").size(), kBurst) << "round " << round;
    if (round < 2) continue;  // warm-up: NAT sessions, pools, caches
    EXPECT_LE(calls, kBudget) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Sharded NF chain against the inline oracle
// ---------------------------------------------------------------------------

struct Flow {
  std::string host;
  std::uint16_t sport;
  std::uint16_t dport;
};

/// What one node delivered, per flow, and what its functions counted.
struct Delivered {
  std::map<std::uint32_t, std::vector<std::uint32_t>> upstream;
  std::map<std::uint32_t, std::vector<std::uint32_t>> downstream;
  std::vector<std::uint64_t> counters;
  std::string vpn_stats;
};

std::vector<std::uint64_t> counters_of(const nnf::NfCounters& c) {
  return {c.in_packets.load(), c.out_packets.load(), c.dropped.load(),
          c.errors.load()};
}

std::uint32_t esp_sequence(const PacketBuffer& frame) {
  // Eth (14) + outer IPv4 (20) + SPI (4).
  const std::uint8_t* p = frame.data().data() + 14 + 20 + 4;
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

/// Drives the seeded traffic through `cpe`: upstream bursts while a
/// second thread re-configures the firewall, then replies sealed by the
/// gateway to every NAT binding seen.
Delivered drive(CpeNode& cpe, const std::vector<Flow>& flows,
                std::uint64_t seed) {
  constexpr int kUpdates = 16;
  Delivered out;
  util::Rng rng(seed);
  std::thread updater([&cpe]() {
    for (int i = 0; i < kUpdates; ++i) {
      // A TCP rule: the verdicts of this UDP traffic do not change.
      EXPECT_TRUE(cpe.node()
                      .orchestrator()
                      .update_nf("cpe", "fw",
                                 {{"rule." + std::to_string(10 + i),
                                   "drop,any,any,tcp,23"}})
                      .is_ok());
      std::this_thread::yield();
    }
  });
  std::vector<std::uint32_t> next_seq(flows.size(), 0);
  for (int b = 0; b < 24; ++b) {
    PacketBurst burst;
    const std::size_t size = rng.uniform(1, 32);
    for (std::size_t i = 0; i < size; ++i) {
      const auto f =
          static_cast<std::uint32_t>(rng.uniform(0, flows.size() - 1));
      burst.push_back(make_frame(flows[f].host, flows[f].sport, "192.0.2.80",
                                 flows[f].dport, f, next_seq[f]++));
    }
    EXPECT_TRUE(cpe.node().inject_burst("eth0", std::move(burst)).is_ok());
  }
  updater.join();

  // Upstream: open the ESP frames in sequence order (the replay window
  // is the gateway's), learning each flow's NAT binding.
  std::vector<PacketBuffer> wan = cpe.take("eth1");
  std::sort(wan.begin(), wan.end(),
            [](const PacketBuffer& a, const PacketBuffer& b) {
              return esp_sequence(a) < esp_sequence(b);
            });
  auto gateway = make_gateway();
  std::map<std::uint32_t, std::uint16_t> external_port;
  for (PacketBuffer& frame : wan) {
    auto inner =
        gateway->process(nnf::kDefaultContext, 1, 0, std::move(frame));
    EXPECT_EQ(inner.size(), 1u);
    if (inner.size() != 1) continue;
    const std::uint32_t flow = payload_u32(inner[0].frame, 0);
    out.upstream[flow].push_back(payload_u32(inner[0].frame, 4));
    auto eth = packet::parse_ethernet(inner[0].frame.data());
    auto tuple = packet::extract_five_tuple(
        inner[0].frame.data().subspan(eth->wire_size()));
    EXPECT_EQ(tuple->src_ip.to_string(), kExternalIp);
    external_port[flow] = tuple->src_port;
  }

  // Downstream: replies to every binding, sealed by the gateway.
  std::vector<std::uint32_t> reply_seq(flows.size(), 0);
  for (int b = 0; b < 8; ++b) {
    PacketBurst burst;
    for (std::size_t i = 0; i < 16; ++i) {
      auto it = external_port.begin();
      std::advance(it, rng.uniform(0, external_port.size() - 1));
      const std::uint32_t f = it->first;
      PacketBuffer reply = make_frame("192.0.2.80", flows[f].dport,
                                      kExternalIp, it->second, f,
                                      reply_seq[f]++);
      auto sealed = gateway->process(nnf::kDefaultContext, 0, 0,
                                     std::move(reply));
      EXPECT_EQ(sealed.size(), 1u);
      if (sealed.size() == 1) burst.push_back(std::move(sealed[0].frame));
    }
    EXPECT_TRUE(cpe.node().inject_burst("eth1", std::move(burst)).is_ok());
  }
  for (PacketBuffer& frame : cpe.take("eth0")) {
    const std::uint32_t flow = payload_u32(frame, 0);
    out.downstream[flow].push_back(payload_u32(frame, 4));
    auto eth = packet::parse_ethernet(frame.data());
    auto tuple =
        packet::extract_five_tuple(frame.data().subspan(eth->wire_size()));
    EXPECT_EQ(tuple->dst_ip.to_string(), flows[flow].host);
    EXPECT_EQ(tuple->dst_port, flows[flow].sport);
  }

  for (const nnf::NfCounters* c : {&cpe.firewall->counters(),
                                   &cpe.nat->counters()}) {
    for (std::uint64_t v : counters_of(*c)) out.counters.push_back(v);
  }
  out.counters.push_back(cpe.nat->session_count(nnf::kDefaultContext));
  out.counters.push_back(cpe.firewall->rule_count(nnf::kDefaultContext));
  out.vpn_stats =
      cpe.node().orchestrator().nf_stats("cpe", "vpn").value().dump();
  return out;
}

TEST(ShardedDatapath, CpeChainOnWorkersMatchesInline) {
  constexpr std::uint64_t kSeed = 0xC0FFEE;
  util::Rng rng(kSeed);
  std::vector<Flow> flows;
  for (int i = 0; i < 24; ++i) {
    Flow flow;
    flow.host = "192.168.1." + std::to_string(rng.uniform(2, 250));
    flow.sport = static_cast<std::uint16_t>(rng.uniform(1024, 60000));
    // One flow in six is dropped by the firewall.
    flow.dport = i % 6 == 5 ? 1900 : static_cast<std::uint16_t>(
                                          rng.uniform(5000, 5100));
    flows.push_back(flow);
  }

  CpeNode inline_node(0);
  const Delivered oracle = drive(inline_node, flows, kSeed);
  CpeNode sharded_node(2);
  const Delivered sharded = drive(sharded_node, flows, kSeed);

  ASSERT_FALSE(oracle.upstream.empty());
  ASSERT_FALSE(oracle.downstream.empty());
  EXPECT_FALSE(oracle.upstream.contains(5));  // dport 1900: dropped
  EXPECT_EQ(sharded.upstream, oracle.upstream);
  EXPECT_EQ(sharded.downstream, oracle.downstream);
  EXPECT_EQ(sharded.counters, oracle.counters);
  EXPECT_EQ(sharded.vpn_stats, oracle.vpn_stats);
}

}  // namespace
}  // namespace nnfv
