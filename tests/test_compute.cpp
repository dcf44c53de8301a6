// Compute layer tests: NfInstance timing/lifecycle, the generic VM/Docker/
// DPDK drivers, the template registry and the compute manager dispatch.
#include <gtest/gtest.h>

#include "compute/generic_driver.hpp"
#include "compute/instance.hpp"
#include "compute/manager.hpp"
#include "compute/templates.hpp"
#include "core/repository.hpp"
#include "nnf/bridge.hpp"
#include "packet/builder.hpp"

namespace nnfv::compute {
namespace {

packet::PacketBuffer test_frame(std::uint32_t src = 1, std::uint32_t dst = 2) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(src);
  spec.eth_dst = packet::MacAddress::from_id(dst);
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  static const std::vector<std::uint8_t> payload(100, 7);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

// ---------------------------------------------------------------------------
// NfInstance
// ---------------------------------------------------------------------------

TEST(NfInstance, ProcessesAfterServiceDelay) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kNative, {1000, 0.0}), simulator);
  ASSERT_TRUE(instance.start().is_ok());

  std::vector<sim::SimTime> egress_times;
  instance.set_burst_egress(nnf::kDefaultContext,
                            [&](nnf::NfPortIndex, packet::PacketBurst&&) {
                              egress_times.push_back(simulator.now());
                            });
  instance.inject(nnf::kDefaultContext, 0, test_frame());
  simulator.run();
  ASSERT_EQ(egress_times.size(), 1u);  // bridge floods to the other port
  // Service time = path_fixed(850) + nf_fixed(1000) + 0/byte.
  EXPECT_EQ(egress_times[0], 1850);
}

TEST(NfInstance, QueuesBackToBack) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kNative, {1000, 0.0}), simulator);
  ASSERT_TRUE(instance.start().is_ok());
  int processed = 0;
  instance.set_burst_egress(
      nnf::kDefaultContext,
      [&](nnf::NfPortIndex, packet::PacketBurst&& burst) {
        processed += static_cast<int>(burst.size());
      });
  instance.inject(nnf::kDefaultContext, 0, test_frame());
  instance.inject(nnf::kDefaultContext, 0, test_frame());
  simulator.run();
  EXPECT_EQ(processed, 2);
  EXPECT_EQ(simulator.now(), 2 * 1850);
  EXPECT_EQ(instance.queue_stats().completed, 2u);
}

TEST(NfInstance, DropsWhenNotRunning) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kNative, {0, 0.0}), simulator);
  instance.inject(nnf::kDefaultContext, 0, test_frame());  // created
  ASSERT_TRUE(instance.start().is_ok());
  ASSERT_TRUE(instance.stop().is_ok());
  instance.inject(nnf::kDefaultContext, 0, test_frame());  // stopped
  simulator.run();
  EXPECT_EQ(instance.dropped_not_running(), 2u);
}

TEST(NfInstance, LifecycleTransitions) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kVm, {0, 0.0}), simulator);
  EXPECT_EQ(instance.state(), InstanceState::kCreated);
  EXPECT_FALSE(instance.stop().is_ok());  // not running yet
  EXPECT_TRUE(instance.start().is_ok());
  EXPECT_EQ(instance.state(), InstanceState::kRunning);
  EXPECT_TRUE(instance.stop().is_ok());
  EXPECT_TRUE(instance.destroy().is_ok());
  EXPECT_FALSE(instance.start().is_ok());  // destroyed is terminal
  EXPECT_EQ(std::string(instance_state_name(instance.state())), "destroyed");
}

TEST(NfInstance, EgressPerContext) {
  sim::Simulator simulator;
  auto bridge = std::make_unique<nnf::Bridge>();
  ASSERT_TRUE(bridge->add_context(1).is_ok());
  NfInstance instance(
      1, "test", std::move(bridge),
      virt::CostModel(virt::BackendKind::kNative, {0, 0.0}), simulator);
  ASSERT_TRUE(instance.start().is_ok());
  int ctx0 = 0;
  int ctx1 = 0;
  instance.set_burst_egress(
      0, [&](nnf::NfPortIndex, packet::PacketBurst&& burst) {
        ctx0 += static_cast<int>(burst.size());
      });
  instance.set_burst_egress(
      1, [&](nnf::NfPortIndex, packet::PacketBurst&& burst) {
        ctx1 += static_cast<int>(burst.size());
      });
  instance.inject(1, 0, test_frame());
  simulator.run();
  EXPECT_EQ(ctx0, 0);
  EXPECT_EQ(ctx1, 1);
  instance.clear_egress(1);
  instance.inject(1, 0, test_frame());
  simulator.run();
  EXPECT_EQ(ctx1, 1);  // egress cleared: output discarded
}

// ---------------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------------

TEST(Templates, BuiltinsCoverAllTypes) {
  auto registry = VnfTemplateRegistry::with_builtin_templates();
  EXPECT_EQ(registry.types().size(), 4u);
  for (const char* type : {"bridge", "firewall", "nat", "ipsec"}) {
    EXPECT_TRUE(registry.has(type)) << type;
    auto tmpl = registry.find(type);
    ASSERT_TRUE(tmpl.is_ok());
    auto function = tmpl->factory();
    ASSERT_TRUE(function.is_ok());
    EXPECT_EQ(function.value()->type(), type);
  }
  EXPECT_FALSE(registry.find("ghost").is_ok());
}

TEST(Templates, RegistrationValidation) {
  VnfTemplateRegistry registry;
  VnfTemplate bad;
  EXPECT_FALSE(registry.register_template(bad).is_ok());  // empty type
  bad.functional_type = "x";
  EXPECT_FALSE(registry.register_template(bad).is_ok());  // no factory
  bad.factory = []() {
    return util::Result<std::unique_ptr<nnf::NetworkFunction>>(
        std::make_unique<nnf::Bridge>());
  };
  EXPECT_TRUE(registry.register_template(bad).is_ok());
  EXPECT_FALSE(registry.register_template(bad).is_ok());  // duplicate
}

// ---------------------------------------------------------------------------
// Generic drivers
// ---------------------------------------------------------------------------

class GenericDriverFixture : public ::testing::Test {
 protected:
  GenericDriverFixture()
      : repository_(core::VnfRepository::with_builtins()),
        disk_(4096ULL * virt::kMiB),
        ram_(1024ULL * virt::kMiB),
        lsi_(1, "LSI-g1") {
    env_.simulator = &simulator_;
    env_.templates = &repository_.templates();
    env_.images = &repository_.images();
    env_.disk = &disk_;
    env_.ram = &ram_;
  }

  NfDeploySpec spec_for(const std::string& type) {
    NfDeploySpec spec;
    spec.graph_id = "g1";
    spec.nf_id = "nf1";
    spec.functional_type = type;
    spec.num_ports = 2;
    return spec;
  }

  sim::Simulator simulator_;
  core::VnfRepository repository_;
  virt::DiskLedger disk_;
  virt::RamLedger ram_;
  nfswitch::Lsi lsi_;
  DriverEnv env_;
};

TEST_F(GenericDriverFixture, DockerDeployCreatesPortsAndAccounts) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, "docker", env_);
  EXPECT_TRUE(driver.can_deploy("ipsec"));
  EXPECT_FALSE(driver.can_deploy("ghost"));

  auto deployed = driver.deploy(spec_for("ipsec"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_EQ(deployed->backend, virt::BackendKind::kDocker);
  EXPECT_EQ(deployed->ports.size(), 2u);
  EXPECT_TRUE(lsi_.has_port(deployed->ports[0].lsi_port));
  // Table 1 shape: Docker RAM ~24.2 MB, image ~240 MB.
  EXPECT_NEAR(static_cast<double>(deployed->ram_bytes) / (1024 * 1024), 24.2,
              0.5);
  EXPECT_NEAR(static_cast<double>(deployed->image_bytes) / (1024 * 1024),
              240.0, 1.0);
  EXPECT_EQ(ram_.used(), deployed->ram_bytes);
  EXPECT_GT(disk_.used(), 0u);
  EXPECT_EQ(driver.instance_count(), 1u);

  ASSERT_TRUE(driver.undeploy(deployed.value()).is_ok());
  EXPECT_EQ(ram_.used(), 0u);
  EXPECT_EQ(disk_.used(), 0u);
  EXPECT_FALSE(lsi_.has_port(deployed->ports[0].lsi_port));
  EXPECT_EQ(driver.instance_count(), 0u);
}

TEST_F(GenericDriverFixture, VmUsesVmConstants) {
  GenericVnfDriver driver(virt::BackendKind::kVm, "libvirt", env_);
  auto deployed = driver.deploy(spec_for("ipsec"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_EQ(std::string(driver.name()), "libvirt");
  EXPECT_NEAR(static_cast<double>(deployed->ram_bytes) / (1024 * 1024),
              390.6, 1.0);
  EXPECT_NEAR(static_cast<double>(deployed->image_bytes) / (1024 * 1024),
              522.0, 1.0);
  EXPECT_EQ(deployed->boot_time, 9 * sim::kSecond);
}

TEST_F(GenericDriverFixture, DeployFailsWhenRamExhausted) {
  virt::RamLedger tiny(10 * virt::kMiB);
  env_.ram = &tiny;
  GenericVnfDriver driver(virt::BackendKind::kVm, "libvirt", env_);
  auto deployed = driver.deploy(spec_for("ipsec"), lsi_);
  ASSERT_FALSE(deployed.is_ok());
  EXPECT_EQ(deployed.status().code(), util::ErrorCode::kResourceExhausted);
  // No partial state: disk rolled back, no ports added.
  EXPECT_EQ(disk_.used(), 0u);
  EXPECT_EQ(lsi_.ports().size(), 0u);
}

TEST_F(GenericDriverFixture, DeployFailsOnBadConfig) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, "docker", env_);
  NfDeploySpec spec = spec_for("nat");
  spec.config["external_ip"] = "not-an-ip";
  auto deployed = driver.deploy(spec, lsi_);
  EXPECT_FALSE(deployed.is_ok());
  EXPECT_EQ(ram_.used(), 0u);
  EXPECT_EQ(disk_.used(), 0u);
}

TEST_F(GenericDriverFixture, DatapathFlowsThroughLsi) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, "docker", env_);
  auto deployed = driver.deploy(spec_for("bridge"), lsi_);
  ASSERT_TRUE(deployed.is_ok());

  // Wire an external port and steer: ext -> NF port 0; NF port 1 -> ext2.
  const auto ext_in = lsi_.add_port("ext-in").value();
  const auto ext_out = lsi_.add_port("ext-out").value();
  int delivered = 0;
  (void)lsi_.set_port_peer(ext_out,
                           [&](packet::PacketBuffer&&) { ++delivered; });
  lsi_.flow_table().add(
      10, nfswitch::match_in_port(ext_in),
      {nfswitch::FlowAction::output(deployed->ports[0].lsi_port)});
  lsi_.flow_table().add(
      10, nfswitch::match_in_port(deployed->ports[1].lsi_port),
      {nfswitch::FlowAction::output(ext_out)});

  lsi_.receive(ext_in, test_frame());
  simulator_.run();
  EXPECT_EQ(delivered, 1);  // bridge flooded out its port 1 -> ext-out
}

TEST_F(GenericDriverFixture, UpdateReconfiguresFunction) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, "docker", env_);
  auto deployed = driver.deploy(spec_for("nat"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_TRUE(
      driver.update(deployed.value(), {{"external_ip", "203.0.113.9"}})
          .is_ok());
  EXPECT_FALSE(driver.update(deployed.value(), {{"bad", "1"}}).is_ok());
  DeployedNf ghost = deployed.value();
  ghost.instance = 999;
  EXPECT_FALSE(driver.update(ghost, {}).is_ok());
}

TEST_F(GenericDriverFixture, SharedLayersAcrossBackends) {
  GenericVnfDriver docker(virt::BackendKind::kDocker, "docker", env_);
  GenericVnfDriver dpdk(virt::BackendKind::kDpdk, "dpdk", env_);
  auto a = docker.deploy(spec_for("ipsec"), lsi_);
  ASSERT_TRUE(a.is_ok());
  const std::uint64_t after_docker = disk_.used();
  NfDeploySpec spec2 = spec_for("ipsec");
  spec2.nf_id = "nf2";
  auto b = dpdk.deploy(spec2, lsi_);
  ASSERT_TRUE(b.is_ok());
  // The 5 MB package layer is shared between docker and dpdk images.
  EXPECT_EQ(disk_.used(),
            after_docker + b->image_bytes - 5ULL * virt::kMiB);
}

// ---------------------------------------------------------------------------
// ComputeManager
// ---------------------------------------------------------------------------

TEST_F(GenericDriverFixture, ManagerDispatchesAndTracks) {
  ComputeManager manager;
  ASSERT_TRUE(
      manager.register_driver(std::make_unique<GenericVnfDriver>(
          virt::BackendKind::kDocker, "docker", env_)).is_ok());
  ASSERT_TRUE(
      manager.register_driver(std::make_unique<GenericVnfDriver>(
          virt::BackendKind::kVm, "libvirt", env_)).is_ok());
  EXPECT_FALSE(
      manager.register_driver(std::make_unique<GenericVnfDriver>(
          virt::BackendKind::kVm, "libvirt", env_)).is_ok());
  EXPECT_FALSE(manager.register_driver(nullptr).is_ok());
  EXPECT_TRUE(manager.has_driver(virt::BackendKind::kDocker));
  EXPECT_FALSE(manager.has_driver(virt::BackendKind::kNative));
  EXPECT_EQ(manager.backends().size(), 2u);

  auto deployed =
      manager.deploy(virt::BackendKind::kDocker, spec_for("ipsec"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_EQ(manager.total_deployments(), 1u);
  EXPECT_EQ(manager.deployments_of("g1").size(), 1u);
  EXPECT_TRUE(manager.deployments_of("other").empty());
  EXPECT_EQ(manager.dispatch_counts().at(virt::BackendKind::kDocker), 1u);

  auto missing =
      manager.deploy(virt::BackendKind::kDpdk, spec_for("ipsec"), lsi_);
  EXPECT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), util::ErrorCode::kUnavailable);

  EXPECT_TRUE(manager.undeploy(deployed.value()).is_ok());
  EXPECT_EQ(manager.total_deployments(), 0u);
}

}  // namespace
}  // namespace nnfv::compute
