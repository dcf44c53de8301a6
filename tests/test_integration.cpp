// End-to-end integration tests on the assembled UniversalNode:
//  * real traffic through deployed graphs (firewall, NAT, IPsec),
//  * an encrypt-then-decrypt two-node tunnel,
//  * the Table 1 structure (throughput ordering across flavors),
//  * shared-NNF isolation between two customers.
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "traffic/measure.hpp"

namespace nnfv {
namespace {

using core::UniversalNode;
using core::UniversalNodeConfig;

nffg::NfFg chain_graph(const std::string& id, const std::string& type,
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

packet::PacketBuffer lan_udp(const std::string& src, const std::string& dst,
                             std::uint16_t dport,
                             std::size_t payload_bytes = 64) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0xC1);
  spec.eth_dst = packet::MacAddress::from_id(0xC2);
  spec.ip_src = *packet::Ipv4Address::parse(src);
  spec.ip_dst = *packet::Ipv4Address::parse(dst);
  spec.src_port = 40000;
  spec.dst_port = dport;
  static std::vector<std::uint8_t> payload;
  payload.assign(payload_bytes, 0x42);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

TEST(Integration, FirewallGraphFiltersTraffic) {
  UniversalNode node;
  nffg::NfFg graph = chain_graph("g1", "firewall");
  graph.nfs[0].config["policy"] = "accept";
  graph.nfs[0].config["rule.1"] = "drop,any,any,udp,23";
  ASSERT_TRUE(node.orchestrator().deploy(graph).is_ok());

  int wan_rx = 0;
  ASSERT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&&) {
                    ++wan_rx;
                  }).is_ok());

  ASSERT_TRUE(node.inject("eth0", lan_udp("10.0.0.2", "8.8.8.8", 53)).is_ok());
  ASSERT_TRUE(node.inject("eth0", lan_udp("10.0.0.2", "8.8.8.8", 23)).is_ok());
  node.simulator().run();
  EXPECT_EQ(wan_rx, 1);  // telnet-ish blocked, DNS passed
}

TEST(Integration, BurstInjectMatchesSingleInject) {
  // The burst path (inject_burst -> LSI-0 -> virtual link -> NF ->
  // restoration) must deliver the same frames as per-packet injection.
  UniversalNode node;
  nffg::NfFg graph = chain_graph("gb", "firewall");
  graph.nfs[0].config["policy"] = "accept";
  graph.nfs[0].config["rule.1"] = "drop,any,any,udp,23";
  ASSERT_TRUE(node.orchestrator().deploy(graph).is_ok());

  int wan_rx = 0;
  ASSERT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&&) {
                    ++wan_rx;
                  }).is_ok());

  packet::PacketBurst burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(lan_udp("10.0.0.2", "8.8.8.8", 53));
  }
  burst.push_back(lan_udp("10.0.0.2", "8.8.8.8", 23));  // blocked
  ASSERT_TRUE(node.inject_burst("eth0", std::move(burst)).is_ok());
  node.simulator().run();
  EXPECT_EQ(wan_rx, 8);
}

TEST(Integration, NatGraphTranslatesAndRestores) {
  UniversalNode node;
  nffg::NfFg graph = chain_graph("g1", "nat");
  graph.nfs[0].config["external_ip"] = "203.0.113.50";
  ASSERT_TRUE(node.orchestrator().deploy(graph).is_ok());

  std::vector<packet::PacketBuffer> wan_out;
  ASSERT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&& frame) {
                    wan_out.push_back(std::move(frame));
                  }).is_ok());
  std::vector<packet::PacketBuffer> lan_out;
  ASSERT_TRUE(node.set_egress("eth0", [&](packet::PacketBuffer&& frame) {
                    lan_out.push_back(std::move(frame));
                  }).is_ok());

  ASSERT_TRUE(
      node.inject("eth0", lan_udp("192.168.1.10", "8.8.8.8", 53)).is_ok());
  node.simulator().run();
  ASSERT_EQ(wan_out.size(), 1u);
  auto eth = packet::parse_ethernet(wan_out[0].data());
  auto out_tuple = packet::extract_five_tuple(
      wan_out[0].data().subspan(eth->wire_size()));
  EXPECT_EQ(out_tuple->src_ip.to_string(), "203.0.113.50");

  // Reply path.
  ASSERT_TRUE(node.inject("eth1", lan_udp("8.8.8.8", "203.0.113.50",
                                          out_tuple->src_port))
                  .is_ok());
  node.simulator().run();
  ASSERT_EQ(lan_out.size(), 1u);
  auto eth2 = packet::parse_ethernet(lan_out[0].data());
  auto back_tuple = packet::extract_five_tuple(
      lan_out[0].data().subspan(eth2->wire_size()));
  EXPECT_EQ(back_tuple->dst_ip.to_string(), "192.168.1.10");
  EXPECT_EQ(back_tuple->dst_port, 40000);
}

TEST(Integration, IpsecTunnelAcrossTwoNodes) {
  // CPE encrypts; a second node (the provider head-end) decrypts. The
  // decrypted packet must equal the original.
  UniversalNode cpe;
  UniversalNode headend;

  nffg::NfFg cpe_graph = chain_graph("cpe-vpn", "ipsec");
  cpe_graph.nfs[0].config = {
      {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
      {"spi_out", "1001"},          {"spi_in", "2002"},
      {"enc_key", "000102030405060708090a0b0c0d0e0f"},
      {"auth_key",
       "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"}};
  ASSERT_TRUE(cpe.orchestrator().deploy(cpe_graph).is_ok());

  nffg::NfFg he_graph;
  he_graph.id = "he-vpn";
  he_graph.add_nf("nf", "ipsec");
  he_graph.nfs[0].config = {
      {"local_ip", "198.51.100.2"}, {"peer_ip", "198.51.100.1"},
      {"spi_out", "2002"},          {"spi_in", "1001"},
      {"enc_key", "000102030405060708090a0b0c0d0e0f"},
      {"auth_key",
       "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"}};
  he_graph.add_endpoint("core", "eth0");   // decrypted side
  he_graph.add_endpoint("access", "eth1");  // encrypted side
  he_graph.connect("r1", nffg::endpoint_ref("access"),
                   nffg::nf_port("nf", 1));
  he_graph.connect("r2", nffg::nf_port("nf", 0),
                   nffg::endpoint_ref("core"));
  he_graph.connect("r3", nffg::endpoint_ref("core"), nffg::nf_port("nf", 0));
  he_graph.connect("r4", nffg::nf_port("nf", 1),
                   nffg::endpoint_ref("access"));
  ASSERT_TRUE(headend.orchestrator().deploy(he_graph).is_ok());

  // Wire: cpe eth1 (encrypted out) -> headend eth1 (encrypted in).
  ASSERT_TRUE(cpe.set_egress("eth1", [&](packet::PacketBuffer&& frame) {
                   // Verify it is ESP on the wire.
                   auto eth = packet::parse_ethernet(frame.data());
                   auto ip = packet::parse_ipv4(
                       frame.data().subspan(eth->wire_size()));
                   ASSERT_TRUE(ip.is_ok());
                   EXPECT_EQ(ip->protocol, packet::kIpProtoEsp);
                   ASSERT_TRUE(
                       headend.inject("eth1", std::move(frame)).is_ok());
                 }).is_ok());

  std::vector<packet::PacketBuffer> decrypted;
  ASSERT_TRUE(headend.set_egress("eth0", [&](packet::PacketBuffer&& frame) {
                        decrypted.push_back(std::move(frame));
                      }).is_ok());

  packet::PacketBuffer original = lan_udp("192.168.1.10", "10.8.0.1", 5001,
                                          300);
  const std::vector<std::uint8_t> inner_before(
      original.data().begin() + 14, original.data().end());
  ASSERT_TRUE(cpe.inject("eth0", std::move(original)).is_ok());
  cpe.simulator().run();
  headend.simulator().run();

  ASSERT_EQ(decrypted.size(), 1u);
  const std::vector<std::uint8_t> inner_after(
      decrypted[0].data().begin() + 14, decrypted[0].data().end());
  EXPECT_EQ(inner_before, inner_after);
}

double measure_ipsec_goodput(virt::BackendKind backend) {
  // Table 1 is an output of the service-time model, in simulated time.
  UniversalNode node(UniversalNodeConfig{.modelled_timing = true});
  nffg::NfFg graph = chain_graph("m", "ipsec", backend);
  graph.nfs[0].config = {
      {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
      {"spi_out", "1001"},          {"spi_in", "2002"},
      {"enc_key", "000102030405060708090a0b0c0d0e0f"},
      {"auth_key",
       "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"}};
  EXPECT_TRUE(node.orchestrator().deploy(graph).is_ok());

  traffic::MeasurementConfig config;
  config.payload_bytes = 1408;
  config.offered_pps = 150000.0;  // ~1.7 Gbps offered: saturates all flavors
  config.warmup = 100 * sim::kMillisecond;
  config.duration = sim::kSecond;

  // Each ESP frame on eth1 corresponds 1:1 to one inner 1408-byte
  // datagram, so goodput = delivered * payload bits / window (what iPerf
  // reports end-to-end).
  std::uint64_t delivered = 0;
  EXPECT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&&) {
                    if (node.simulator().now() >= config.warmup &&
                        node.simulator().now() <
                            config.warmup + config.duration) {
                      ++delivered;
                    }
                  }).is_ok());

  traffic::UdpSourceConfig source_config;
  source_config.payload_bytes = config.payload_bytes;
  source_config.packets_per_second = config.offered_pps;
  source_config.stop = config.warmup + config.duration;
  traffic::UdpSource source(node.simulator(), source_config,
                            [&](packet::PacketBuffer&& frame) {
                              (void)node.inject("eth0", std::move(frame));
                            });
  source.begin();
  node.simulator().run_until(config.warmup + config.duration +
                             50 * sim::kMillisecond);
  return static_cast<double>(delivered) * 1408.0 * 8.0 /
         (static_cast<double>(config.duration) / 1e9) / 1e6;  // Mbps
}

TEST(Integration, Table1ThroughputShapeHolds) {
  const double native = measure_ipsec_goodput(virt::BackendKind::kNative);
  const double docker = measure_ipsec_goodput(virt::BackendKind::kDocker);
  const double vm = measure_ipsec_goodput(virt::BackendKind::kVm);

  // Paper: native 1094, docker 1095, vm 796 Mbps.
  EXPECT_NEAR(native, 1094.0, 35.0);
  EXPECT_NEAR(docker, 1095.0, 35.0);
  EXPECT_NEAR(vm, 796.0, 30.0);
  // Ordering: VM clearly slower; docker ~ native.
  EXPECT_LT(vm, 0.8 * native);
  EXPECT_NEAR(docker / native, 1.0, 0.02);
}

TEST(Integration, SharedNnfIsolatesTwoCustomers) {
  // Two customers' graphs share one native NAT instance; their conntrack
  // state and external IPs stay separate and traffic never crosses.
  UniversalNode node(UniversalNodeConfig{
      .physical_ports = {"eth0", "eth1", "eth2", "eth3"}});

  auto make = [&](const std::string& id, const std::string& lan_if,
                  const std::string& wan_if, const std::string& ext_ip) {
    nffg::NfFg graph;
    graph.id = id;
    graph.add_nf("nat", "nat").config["external_ip"] = ext_ip;
    graph.add_endpoint("lan", lan_if);
    graph.add_endpoint("wan", wan_if);
    graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("nat", 0));
    graph.connect("r2", nffg::nf_port("nat", 1), nffg::endpoint_ref("wan"));
    graph.connect("r3", nffg::endpoint_ref("wan"), nffg::nf_port("nat", 1));
    graph.connect("r4", nffg::nf_port("nat", 0), nffg::endpoint_ref("lan"));
    return graph;
  };
  auto report_a = node.orchestrator().deploy(
      make("custA", "eth0", "eth1", "203.0.113.1"));
  auto report_b = node.orchestrator().deploy(
      make("custB", "eth2", "eth3", "203.0.113.2"));
  ASSERT_TRUE(report_a.is_ok());
  ASSERT_TRUE(report_b.is_ok());
  EXPECT_TRUE(report_b->placements[0].reused_shared_instance);
  EXPECT_EQ(node.catalog().status_of("nat")->running_instances, 1u);

  std::vector<packet::PacketBuffer> wan_a;
  std::vector<packet::PacketBuffer> wan_b;
  ASSERT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&& frame) {
                    wan_a.push_back(std::move(frame));
                  }).is_ok());
  ASSERT_TRUE(node.set_egress("eth3", [&](packet::PacketBuffer&& frame) {
                    wan_b.push_back(std::move(frame));
                  }).is_ok());

  ASSERT_TRUE(
      node.inject("eth0", lan_udp("192.168.1.10", "8.8.8.8", 53)).is_ok());
  ASSERT_TRUE(
      node.inject("eth2", lan_udp("192.168.1.10", "8.8.8.8", 53)).is_ok());
  node.simulator().run();

  ASSERT_EQ(wan_a.size(), 1u);
  ASSERT_EQ(wan_b.size(), 1u);
  auto src_of = [](const packet::PacketBuffer& frame) {
    auto eth = packet::parse_ethernet(frame.data());
    return packet::extract_five_tuple(frame.data().subspan(eth->wire_size()))
        ->src_ip.to_string();
  };
  EXPECT_EQ(src_of(wan_a[0]), "203.0.113.1");
  EXPECT_EQ(src_of(wan_b[0]), "203.0.113.2");
}

TEST(Integration, GraphTeardownStopsDatapath) {
  UniversalNode node;
  nffg::NfFg graph = chain_graph("g1", "firewall");
  ASSERT_TRUE(node.orchestrator().deploy(graph).is_ok());
  int wan_rx = 0;
  ASSERT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&&) {
                    ++wan_rx;
                  }).is_ok());
  ASSERT_TRUE(node.inject("eth0", lan_udp("10.0.0.2", "8.8.8.8", 53)).is_ok());
  node.simulator().run();
  EXPECT_EQ(wan_rx, 1);

  ASSERT_TRUE(node.orchestrator().remove("g1").is_ok());
  ASSERT_TRUE(node.inject("eth0", lan_udp("10.0.0.2", "8.8.8.8", 53)).is_ok());
  node.simulator().run();
  EXPECT_EQ(wan_rx, 1);  // no path anymore
}

TEST(Integration, ChainOfThreeNativeFunctions) {
  // lan -> firewall -> nat -> bridge -> wan and back.
  UniversalNode node;
  nffg::NfFg graph;
  graph.id = "chain3";
  graph.add_nf("fw", "firewall");
  graph.add_nf("nat", "nat").config["external_ip"] = "203.0.113.9";
  graph.add_nf("br", "bridge");
  graph.add_endpoint("lan", "eth0");
  graph.add_endpoint("wan", "eth1");
  graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("fw", 0));
  graph.connect("r2", nffg::nf_port("fw", 1), nffg::nf_port("nat", 0));
  graph.connect("r3", nffg::nf_port("nat", 1), nffg::nf_port("br", 0));
  graph.connect("r4", nffg::nf_port("br", 1), nffg::endpoint_ref("wan"));
  graph.connect("r5", nffg::endpoint_ref("wan"), nffg::nf_port("br", 1));
  graph.connect("r6", nffg::nf_port("br", 0), nffg::nf_port("nat", 1));
  graph.connect("r7", nffg::nf_port("nat", 0), nffg::nf_port("fw", 1));
  graph.connect("r8", nffg::nf_port("fw", 0), nffg::endpoint_ref("lan"));

  auto report = node.orchestrator().deploy(graph);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->placements.size(), 3u);

  std::vector<packet::PacketBuffer> wan_out;
  ASSERT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&& frame) {
                    wan_out.push_back(std::move(frame));
                  }).is_ok());
  ASSERT_TRUE(
      node.inject("eth0", lan_udp("192.168.1.4", "8.8.8.8", 53)).is_ok());
  node.simulator().run();
  ASSERT_EQ(wan_out.size(), 1u);
  auto eth = packet::parse_ethernet(wan_out[0].data());
  auto tuple = packet::extract_five_tuple(
      wan_out[0].data().subspan(eth->wire_size()));
  EXPECT_EQ(tuple->src_ip.to_string(), "203.0.113.9");  // NAT applied
}

}  // namespace
}  // namespace nnfv
