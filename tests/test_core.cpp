// Core support-block tests: resource manager, repository, resolver,
// scheduler policy, network manager (LSIs + virtual links) and steering.
#include <gtest/gtest.h>

#include "compute/generic_driver.hpp"
#include "compute/manager.hpp"
#include "compute/native_driver.hpp"
#include "core/network_manager.hpp"
#include "core/repository.hpp"
#include "core/resolver.hpp"
#include "core/resource_manager.hpp"
#include "core/scheduler.hpp"
#include "core/node.hpp"
#include "core/steering.hpp"
#include "packet/builder.hpp"

namespace nnfv::core {
namespace {

// ---------------------------------------------------------------------------
// ResourceManager
// ---------------------------------------------------------------------------

TEST(ResourceManager, LedgersSizedFromCapacity) {
  NodeCapacity capacity;
  capacity.ram_bytes = 512 * virt::kMiB;
  capacity.disk_bytes = 1024 * virt::kMiB;
  ResourceManager resources(capacity);
  EXPECT_EQ(resources.ram().capacity(), 512 * virt::kMiB);
  EXPECT_EQ(resources.disk().capacity(), 1024 * virt::kMiB);
}

TEST(ResourceManager, DescribeReportsStateAndBackends) {
  ResourceManager resources(NodeCapacity{});
  resources.set_backends(
      {virt::BackendKind::kNative, virt::BackendKind::kDocker});
  ASSERT_TRUE(resources.ram().reserve(100));
  json::Value doc = resources.describe();
  EXPECT_EQ(doc.get_string("hostname"), "cpe-node");
  EXPECT_DOUBLE_EQ(doc.get("ram")->get_number("used_bytes"), 100.0);
  ASSERT_TRUE(doc.get("backends")->is_array());
  EXPECT_EQ(doc.get("backends")->as_array().size(), 2u);
  EXPECT_EQ(doc.get("backends")->as_array()[0].as_string(), "native");
}

// ---------------------------------------------------------------------------
// VnfRepository
// ---------------------------------------------------------------------------

TEST(VnfRepository, BuiltinsProvideAllFlavors) {
  VnfRepository repo = VnfRepository::with_builtins();
  for (const char* type : {"bridge", "firewall", "nat", "ipsec"}) {
    EXPECT_TRUE(repo.templates().has(type)) << type;
    for (virt::BackendKind kind :
         {virt::BackendKind::kNative, virt::BackendKind::kDocker,
          virt::BackendKind::kDpdk, virt::BackendKind::kVm}) {
      EXPECT_TRUE(repo.image_for(type, kind).is_ok())
          << type << "/" << virt::backend_name(kind);
    }
  }
}

TEST(VnfRepository, AddNfRejectsDuplicates) {
  VnfRepository repo = VnfRepository::with_builtins();
  compute::VnfTemplate dup;
  dup.functional_type = "ipsec";
  dup.factory = []() {
    return util::Result<std::unique_ptr<nnf::NetworkFunction>>(
        util::unimplemented("n/a"));
  };
  EXPECT_FALSE(repo.add_nf(std::move(dup)).is_ok());
}

// ---------------------------------------------------------------------------
// Resolver + scheduler on a real node assembly
// ---------------------------------------------------------------------------

class ResolverFixture : public ::testing::Test {
 protected:
  ResolverFixture()
      : catalog_(nnf::NnfCatalog::with_builtin_plugins()),
        repository_(VnfRepository::with_builtins()),
        resources_(NodeCapacity{}),
        resolver_(&repository_, &catalog_) {
    compute::DriverEnv generic;
    generic.runtime = &runtime_;
    generic.templates = &repository_.templates();
    generic.images = &repository_.images();
    generic.disk = &resources_.disk();
    generic.ram = &resources_.ram();
    compute::NativeDriverEnv native;
    native.runtime = &runtime_;
    native.catalog = &catalog_;
    native.netns = &netns_;
    native.marks = &marks_;
    native.ram = &resources_.ram();
    (void)manager_.register_driver(
        std::make_unique<compute::NativeDriver>(native));
    (void)manager_.register_driver(
        std::make_unique<compute::GenericVnfDriver>(
            virt::BackendKind::kDocker, "docker", generic));
    (void)manager_.register_driver(
        std::make_unique<compute::GenericVnfDriver>(
            virt::BackendKind::kVm, "libvirt", generic));
  }

  compute::NfRuntime runtime_;
  nnf::NnfCatalog catalog_;
  netns::NamespaceRegistry netns_;
  nnf::MarkAllocator marks_;
  VnfRepository repository_;
  ResourceManager resources_;
  compute::ComputeManager manager_;
  VnfResolver resolver_;
};

TEST_F(ResolverFixture, ResolvesAllViableBackends) {
  auto candidates = resolver_.resolve("ipsec", manager_);
  // native + docker + vm (no dpdk driver registered).
  ASSERT_EQ(candidates.size(), 3u);
  std::set<virt::BackendKind> kinds;
  for (const auto& c : candidates) kinds.insert(c.backend);
  EXPECT_TRUE(kinds.contains(virt::BackendKind::kNative));
  EXPECT_TRUE(kinds.contains(virt::BackendKind::kDocker));
  EXPECT_TRUE(kinds.contains(virt::BackendKind::kVm));
  EXPECT_FALSE(kinds.contains(virt::BackendKind::kDpdk));
}

TEST_F(ResolverFixture, UnknownTypeResolvesEmpty) {
  EXPECT_TRUE(resolver_.resolve("quantum-dpi", manager_).empty());
}

TEST_F(ResolverFixture, NativeCandidateReflectsSharing) {
  auto before = resolver_.resolve("ipsec", manager_);
  const auto* native = &before[0];
  for (const auto& c : before) {
    if (c.backend == virt::BackendKind::kNative) native = &c;
  }
  EXPECT_FALSE(native->shares_running_instance);
  const std::uint64_t fresh_ram = native->ram_estimate;

  catalog_.status("ipsec").running_instances = 1;  // as if one runs
  auto after = resolver_.resolve("ipsec", manager_);
  for (const auto& c : after) {
    if (c.backend == virt::BackendKind::kNative) {
      EXPECT_TRUE(c.shares_running_instance);
      EXPECT_LT(c.ram_estimate, fresh_ram);
    }
  }
}

TEST_F(ResolverFixture, NonSharableAtLimitDropsNativeCandidate) {
  catalog_.status("bridge").running_instances = 8;  // at max, not sharable
  auto candidates = resolver_.resolve("bridge", manager_);
  for (const auto& c : candidates) {
    EXPECT_NE(c.backend, virt::BackendKind::kNative);
  }
}

TEST_F(ResolverFixture, SchedulerPrefersNativeThenSmallestRam) {
  VnfScheduler scheduler;
  nffg::NfNode nf;
  nf.id = "vpn";
  nf.functional_type = "ipsec";
  auto ranked = scheduler.schedule(nf, resolver_.resolve("ipsec", manager_));
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].impl.backend, virt::BackendKind::kNative);
  EXPECT_EQ(ranked[1].impl.backend, virt::BackendKind::kDocker);
  EXPECT_EQ(ranked[2].impl.backend, virt::BackendKind::kVm);
  EXPECT_NE(ranked[0].reason.find("native"), std::string::npos);
}

TEST_F(ResolverFixture, BackendHintPinsChoice) {
  VnfScheduler scheduler;
  nffg::NfNode nf;
  nf.id = "vpn";
  nf.functional_type = "ipsec";
  nf.backend_hint = virt::BackendKind::kVm;
  auto ranked = scheduler.schedule(nf, resolver_.resolve("ipsec", manager_));
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].impl.backend, virt::BackendKind::kVm);
  EXPECT_NE(ranked[0].reason.find("pinned"), std::string::npos);

  nf.backend_hint = virt::BackendKind::kDpdk;  // no dpdk driver
  EXPECT_TRUE(
      scheduler.schedule(nf, resolver_.resolve("ipsec", manager_)).empty());
}

// ---------------------------------------------------------------------------
// NetworkManager
// ---------------------------------------------------------------------------

TEST(NetworkManager, PhysicalPorts) {
  NetworkManager network;
  auto eth0 = network.add_physical_port("eth0");
  ASSERT_TRUE(eth0.is_ok());
  EXPECT_FALSE(network.add_physical_port("eth0").is_ok());
  EXPECT_EQ(network.physical_port("eth0").value(), eth0.value());
  EXPECT_FALSE(network.physical_port("eth9").is_ok());
  EXPECT_EQ(network.lsi_count(), 1u);  // just LSI-0
}

TEST(NetworkManager, GraphLsiLifecycle) {
  NetworkManager network;
  auto lsi = network.create_graph_lsi("g1");
  ASSERT_TRUE(lsi.is_ok());
  EXPECT_FALSE(network.create_graph_lsi("g1").is_ok());
  EXPECT_EQ(network.lsi_count(), 2u);
  EXPECT_EQ(network.graph_lsi("g1"), lsi.value());
  EXPECT_EQ(network.graph_lsi("gX"), nullptr);
  EXPECT_EQ(network.graph_ids().size(), 1u);
  EXPECT_TRUE(network.destroy_graph_lsi("g1").is_ok());
  EXPECT_FALSE(network.destroy_graph_lsi("g1").is_ok());
  EXPECT_EQ(network.lsi_count(), 1u);
}

TEST(NetworkManager, VirtualLinkCrossWiresLsis) {
  NetworkManager network;
  auto lsi = network.create_graph_lsi("g1");
  ASSERT_TRUE(lsi.is_ok());
  auto link = network.create_virtual_link("g1", "lan");
  ASSERT_TRUE(link.is_ok());
  EXPECT_FALSE(network.create_virtual_link("gX", "lan").is_ok());

  // A frame transmitted out of the LSI-0 end arrives at the graph LSI.
  int graph_rx = 0;
  lsi.value()->flow_table().add(
      1, nfswitch::match_in_port(link->graph_port),
      {nfswitch::FlowAction::to_controller()});
  class Counter : public nfswitch::FlowController {
   public:
    explicit Counter(int* n) : n_(n) {}
    void on_packet_in(nfswitch::Lsi&, nfswitch::PortId,
                      const packet::PacketBuffer&) override {
      ++*n_;
    }
    int* n_;
  } controller(&graph_rx);
  lsi.value()->set_controller(&controller);

  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("1.1.1.1");
  spec.ip_dst = *packet::Ipv4Address::parse("2.2.2.2");
  network.base_lsi().transmit_burst(
      link->base_port, packet::burst_of(packet::build_udp_frame(spec)));
  EXPECT_EQ(graph_rx, 1);
}

// ---------------------------------------------------------------------------
// TrafficSteering
// ---------------------------------------------------------------------------

class SteeringFixture : public ::testing::Test {
 protected:
  SteeringFixture() {
    (void)network_.add_physical_port("eth0");
    (void)network_.add_physical_port("eth1");
    lsi_ = network_.create_graph_lsi("g1").value();
    ports_.endpoints["lan"] = network_.create_virtual_link("g1", "lan").value();
    ports_.endpoints["wan"] = network_.create_virtual_link("g1", "wan").value();
    // Fake NF ports directly on the graph LSI.
    ports_.nf_ports[{"fw", 0}] = lsi_->add_port("fw:0").value();
    ports_.nf_ports[{"fw", 1}] = lsi_->add_port("fw:1").value();

    graph_.id = "g1";
    graph_.add_nf("fw", "firewall");
    graph_.add_endpoint("lan", "eth0", 10);
    graph_.add_endpoint("wan", "eth1");
    graph_.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("fw", 0));
    graph_.connect("r2", nffg::nf_port("fw", 1), nffg::endpoint_ref("wan"));
    graph_.connect("r3", nffg::endpoint_ref("wan"), nffg::nf_port("fw", 1));
    graph_.connect("r4", nffg::nf_port("fw", 0), nffg::endpoint_ref("lan"));
  }

  NetworkManager network_;
  nfswitch::Lsi* lsi_ = nullptr;
  GraphPorts ports_;
  nffg::NfFg graph_;
};

TEST_F(SteeringFixture, InstallCountsRules) {
  const auto cookie = TrafficSteering::cookie_for("g1");
  auto installed = TrafficSteering::install(graph_, network_, ports_, cookie);
  ASSERT_TRUE(installed.is_ok());
  // 2 per endpoint on LSI-0 (in+out) + 4 graph rules.
  EXPECT_EQ(installed.value(), 2u * 2u + 4u);
  EXPECT_EQ(network_.base_lsi().flow_table().size(), 4u);
  EXPECT_EQ(lsi_->flow_table().size(), 4u);
}

TEST_F(SteeringFixture, EndToEndClassificationAndRestoration) {
  ASSERT_TRUE(TrafficSteering::install(graph_, network_, ports_,
                                       TrafficSteering::cookie_for("g1"))
                  .is_ok());
  // fw ports loop back for the test: anything into fw:0 leaves fw:1.
  (void)lsi_->set_port_peer(
      ports_.nf_ports[{"fw", 0}],
      [this](packet::PacketBuffer&& frame) {
        lsi_->receive(ports_.nf_ports[{"fw", 1}], std::move(frame));
      });

  std::vector<packet::PacketBuffer> wan_out;
  ASSERT_TRUE(network_
                  .set_physical_egress("eth1",
                                       [&](packet::PacketBuffer&& frame) {
                                         wan_out.push_back(std::move(frame));
                                       })
                  .is_ok());

  // Tagged customer traffic enters eth0 on VLAN 10.
  packet::UdpFrameSpec spec;
  spec.vlan = 10;
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.2");
  spec.ip_dst = *packet::Ipv4Address::parse("8.8.8.8");
  spec.src_port = 1;
  spec.dst_port = 2;
  ASSERT_TRUE(
      network_
          .inject_burst("eth0", packet::burst_of(packet::build_udp_frame(spec)))
          .is_ok());

  ASSERT_EQ(wan_out.size(), 1u);
  // The WAN endpoint is untagged: the VLAN 10 tag was popped at LSI-0.
  EXPECT_FALSE(packet::parse_ethernet(wan_out[0].data())->vlan.has_value());
}

TEST_F(SteeringFixture, ReturnPathReTagsVlan) {
  ASSERT_TRUE(TrafficSteering::install(graph_, network_, ports_,
                                       TrafficSteering::cookie_for("g1"))
                  .is_ok());
  (void)lsi_->set_port_peer(
      ports_.nf_ports[{"fw", 1}],
      [this](packet::PacketBuffer&& frame) {
        lsi_->receive(ports_.nf_ports[{"fw", 0}], std::move(frame));
      });
  std::vector<packet::PacketBuffer> lan_out;
  ASSERT_TRUE(network_
                  .set_physical_egress("eth0",
                                       [&](packet::PacketBuffer&& frame) {
                                         lan_out.push_back(std::move(frame));
                                       })
                  .is_ok());
  packet::UdpFrameSpec spec;  // untagged from WAN
  spec.ip_src = *packet::Ipv4Address::parse("8.8.8.8");
  spec.ip_dst = *packet::Ipv4Address::parse("192.168.1.2");
  ASSERT_TRUE(
      network_
          .inject_burst("eth1", packet::burst_of(packet::build_udp_frame(spec)))
          .is_ok());
  ASSERT_EQ(lan_out.size(), 1u);
  // LAN endpoint is VLAN 10: the return traffic is re-tagged.
  EXPECT_EQ(packet::parse_ethernet(lan_out[0].data())->vlan.value_or(0), 10);
}

TEST_F(SteeringFixture, PacketFiltersNarrowRules) {
  // Replace r1 with a UDP-only rule plus a drop fallback.
  graph_.rules.clear();
  nffg::Rule& udp_rule = graph_.connect("r1", nffg::endpoint_ref("lan"),
                                        nffg::nf_port("fw", 0), 20);
  udp_rule.match.ip_proto = packet::kIpProtoUdp;
  udp_rule.match.tp_dst = 53;
  ASSERT_TRUE(TrafficSteering::install(graph_, network_, ports_,
                                       TrafficSteering::cookie_for("g1"))
                  .is_ok());
  int fw_rx = 0;
  (void)lsi_->set_port_peer(ports_.nf_ports[{"fw", 0}],
                            [&](packet::PacketBuffer&&) { ++fw_rx; });

  packet::UdpFrameSpec dns;
  dns.vlan = 10;
  dns.ip_src = *packet::Ipv4Address::parse("192.168.1.2");
  dns.ip_dst = *packet::Ipv4Address::parse("8.8.8.8");
  dns.dst_port = 53;
  (void)network_.inject_burst("eth0",
                              packet::burst_of(packet::build_udp_frame(dns)));
  EXPECT_EQ(fw_rx, 1);

  packet::UdpFrameSpec other = dns;
  other.dst_port = 80;
  (void)network_.inject_burst(
      "eth0", packet::burst_of(packet::build_udp_frame(other)));
  EXPECT_EQ(fw_rx, 1);  // not matched: graph-LSI table miss, dropped
}

TEST_F(SteeringFixture, RemoveDeletesOnlyThisGraphsRules) {
  const auto cookie = TrafficSteering::cookie_for("g1");
  ASSERT_TRUE(
      TrafficSteering::install(graph_, network_, ports_, cookie).is_ok());
  // Unrelated rule survives.
  network_.base_lsi().flow_table().add(1, nfswitch::FlowMatch{}, {}, 0xABC);
  const std::size_t removed = TrafficSteering::remove(network_, cookie);
  EXPECT_EQ(removed, 4u);
  EXPECT_EQ(network_.base_lsi().flow_table().size(), 1u);
}

TEST_F(SteeringFixture, InstallFailsOnMissingMapping) {
  ports_.nf_ports.erase({"fw", 1});
  auto installed = TrafficSteering::install(graph_, network_, ports_,
                                            TrafficSteering::cookie_for("g1"));
  EXPECT_FALSE(installed.is_ok());
}

}  // namespace
}  // namespace nnfv::core

// -----------------------------------------------------------------------
// Alternative placement policies (appended with the A6 ablation)
// -----------------------------------------------------------------------

namespace nnfv::core {
namespace {

class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture() {
    // Candidate set mimicking a full resolver result for "ipsec".
    NfImplementation native;
    native.backend = virt::BackendKind::kNative;
    native.ram_estimate = 20 * virt::kMiB;
    candidates_.push_back(native);
    NfImplementation docker;
    docker.backend = virt::BackendKind::kDocker;
    docker.image = "ipsec:docker";
    docker.ram_estimate = 24 * virt::kMiB;
    candidates_.push_back(docker);
    NfImplementation vm;
    vm.backend = virt::BackendKind::kVm;
    vm.image = "ipsec:vm";
    vm.ram_estimate = 390 * virt::kMiB;
    candidates_.push_back(vm);
    nf_.id = "vpn";
    nf_.functional_type = "ipsec";
  }
  std::vector<NfImplementation> candidates_;
  nffg::NfNode nf_;
};

TEST_F(PolicyFixture, VnfOnlyDropsNativeAndSortsByRam) {
  VnfOnlyPolicy policy;
  auto ranked = policy.rank(nf_, candidates_);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].impl.backend, virt::BackendKind::kDocker);
  EXPECT_EQ(ranked[1].impl.backend, virt::BackendKind::kVm);
}

TEST_F(PolicyFixture, FastActivationPrefersSharedNative) {
  // A shared native candidate activates in config time, beating boot.
  NfImplementation shared = candidates_[0];
  shared.shares_running_instance = true;
  auto with_shared = candidates_;
  with_shared.push_back(shared);
  FastActivationPolicy policy;
  auto ranked = policy.rank(nf_, with_shared);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_TRUE(ranked[0].impl.shares_running_instance);
  EXPECT_EQ(ranked[0].impl.backend, virt::BackendKind::kNative);
  // VM boots slowest: always last.
  EXPECT_EQ(ranked.back().impl.backend, virt::BackendKind::kVm);
}

TEST_F(PolicyFixture, MakePolicyFactoryCoversAllKinds) {
  for (PlacementPolicyKind kind :
       {PlacementPolicyKind::kDefault, PlacementPolicyKind::kVnfOnly,
        PlacementPolicyKind::kFastActivation}) {
    auto policy = make_policy(kind);
    ASSERT_NE(policy, nullptr);
    (void)policy->rank(nf_, candidates_);
  }
}

TEST_F(PolicyFixture, VnfOnlyNodeNeverPlacesNative) {
  UniversalNodeConfig config;
  config.placement_policy = PlacementPolicyKind::kVnfOnly;
  UniversalNode node(config);
  nffg::NfFg graph;
  graph.id = "g";
  graph.add_nf("nf", "ipsec");
  graph.add_endpoint("lan", "eth0");
  graph.add_endpoint("wan", "eth1");
  graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("nf", 0));
  graph.connect("r2", nffg::nf_port("nf", 1), nffg::endpoint_ref("wan"));
  auto report = node.orchestrator().deploy(graph);
  ASSERT_TRUE(report.is_ok());
  EXPECT_NE(report->placements[0].backend, virt::BackendKind::kNative);
  EXPECT_EQ(node.catalog().status_of("ipsec")->running_instances, 0u);
}

}  // namespace
}  // namespace nnfv::core
