// Token-bucket policer NF tests: conformance math, burst behaviour,
// refill over simulated time, direction config, context isolation, and an
// end-to-end rate-plan enforcement run on a UniversalNode.
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "nnf/policer.hpp"
#include "nnf/translator.hpp"
#include "packet/builder.hpp"
#include "traffic/source.hpp"

namespace nnfv::nnf {
namespace {

packet::PacketBuffer frame_of(std::size_t payload) {
  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  static std::vector<std::uint8_t> buf;
  buf.assign(payload, 0x33);
  spec.payload = buf;
  return packet::build_udp_frame(spec);
}

TokenBucketPolicer make_policer(const std::string& mbps,
                                const std::string& burst_kb = "64") {
  TokenBucketPolicer policer;
  EXPECT_TRUE(policer
                  .configure(kDefaultContext,
                             {{"rate_mbps", mbps}, {"burst_kb", burst_kb}})
                  .is_ok());
  return policer;
}

TEST(Policer, UnconfiguredPassesEverything) {
  TokenBucketPolicer policer;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policer.process(kDefaultContext, 0, 0, frame_of(1400)).size(),
              1u);
  }
  EXPECT_EQ(policer.stats().exceeded, 0u);
}

TEST(Policer, ForwardsBetweenPorts) {
  TokenBucketPolicer policer = make_policer("100");
  auto up = policer.process(kDefaultContext, 0, 0, frame_of(100));
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].port, 1u);
  auto down = policer.process(kDefaultContext, 1, 0, frame_of(100));
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].port, 0u);
}

TEST(Policer, BurstThenDrop) {
  // 8 Mbit/s, 2 KB bucket: ~14 frames of 142 B pass, then drops (at t=0,
  // no refill).
  TokenBucketPolicer policer = make_policer("8", "2");
  int passed = 0;
  for (int i = 0; i < 30; ++i) {
    passed += static_cast<int>(
        policer.process(kDefaultContext, 0, 0, frame_of(100)).size());
  }
  EXPECT_EQ(passed, 14);  // floor(2048 / 142)
  EXPECT_EQ(policer.stats().exceeded, 16u);
}

TEST(Policer, BucketRefillsOverTime) {
  TokenBucketPolicer policer = make_policer("8", "2");  // 1 B/us refill
  // Drain the bucket at t=0.
  for (int i = 0; i < 20; ++i) {
    (void)policer.process(kDefaultContext, 0, 0, frame_of(100));
  }
  EXPECT_TRUE(policer.process(kDefaultContext, 0, 0, frame_of(100)).empty());
  // 142 us later exactly one more 142-byte frame fits.
  const sim::SimTime later = 142 * sim::kMicrosecond;
  EXPECT_EQ(policer.process(kDefaultContext, 0, later, frame_of(100)).size(),
            1u);
  EXPECT_TRUE(
      policer.process(kDefaultContext, 0, later, frame_of(100)).empty());
}

TEST(Policer, SteadyStateRateEnforced) {
  // Offer 100 Mbit/s for 100 ms against a 20 Mbit/s policer: ~20% passes.
  TokenBucketPolicer policer = make_policer("20", "16");
  const std::size_t frame_bytes = frame_of(1400).size();
  const sim::SimTime gap =
      static_cast<sim::SimTime>(frame_bytes * 8.0 * 1e9 / 100e6);
  std::uint64_t passed_bytes = 0;
  for (sim::SimTime t = 0; t < 100 * sim::kMillisecond; t += gap) {
    if (!policer.process(kDefaultContext, 0, t, frame_of(1400)).empty()) {
      passed_bytes += frame_bytes;
    }
  }
  const double rate_mbps = static_cast<double>(passed_bytes) * 8.0 / 0.1 / 1e6;
  EXPECT_NEAR(rate_mbps, 20.0, 2.5);  // burst slack
}

TEST(Policer, UpstreamOnlyDirection) {
  TokenBucketPolicer policer;
  ASSERT_TRUE(policer
                  .configure(kDefaultContext, {{"rate_mbps", "8"},
                                               {"burst_kb", "1"},
                                               {"direction", "up"}})
                  .is_ok());
  // Drain upstream.
  for (int i = 0; i < 20; ++i) {
    (void)policer.process(kDefaultContext, 0, 0, frame_of(100));
  }
  EXPECT_TRUE(policer.process(kDefaultContext, 0, 0, frame_of(100)).empty());
  // Downstream is never policed.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(policer.process(kDefaultContext, 1, 0, frame_of(100)).size(),
              1u);
  }
}

TEST(Policer, ContextsHaveIndependentBuckets) {
  TokenBucketPolicer policer = make_policer("8", "1");
  ASSERT_TRUE(policer.add_context(1).is_ok());
  ASSERT_TRUE(
      policer.configure(1, {{"rate_mbps", "8"}, {"burst_kb", "1"}}).is_ok());
  // Drain context 0.
  for (int i = 0; i < 10; ++i) {
    (void)policer.process(0, 0, 0, frame_of(100));
  }
  EXPECT_TRUE(policer.process(0, 0, 0, frame_of(100)).empty());
  // Context 1 still has a full bucket.
  EXPECT_EQ(policer.process(1, 0, 0, frame_of(100)).size(), 1u);
  EXPECT_GT(policer.tokens(1), 0.0);
}

TEST(Policer, ConfigValidation) {
  TokenBucketPolicer policer;
  EXPECT_FALSE(
      policer.configure(kDefaultContext, {{"rate_mbps", "0"}}).is_ok());
  EXPECT_FALSE(
      policer.configure(kDefaultContext, {{"rate_mbps", "x"}}).is_ok());
  EXPECT_FALSE(
      policer.configure(kDefaultContext, {{"burst_kb", "0"}}).is_ok());
  EXPECT_FALSE(
      policer.configure(kDefaultContext, {{"direction", "sideways"}}).is_ok());
  EXPECT_FALSE(policer.configure(kDefaultContext, {{"zzz", "1"}}).is_ok());
  EXPECT_FALSE(policer.configure(9, {}).is_ok());
}

TEST(PolicerPlugin, DescriptorAndFactory) {
  auto plugin = make_policer_plugin();
  EXPECT_EQ(plugin->descriptor().functional_type, "policer");
  EXPECT_TRUE(plugin->descriptor().sharable);
  EXPECT_TRUE(plugin->descriptor().single_interface);
  auto function = plugin->create_function();
  ASSERT_TRUE(function.is_ok());
  EXPECT_EQ(function.value()->type(), "policer");
}

TEST(PolicerGeneric, VocabularyLowers) {
  auto lowered = translate_generic_config(
      "policer", {{"rate_limit_mbps", "50"},
                  {"rate_burst_kb", "128"},
                  {"upstream_only", "1"}});
  ASSERT_TRUE(lowered.is_ok());
  EXPECT_EQ(lowered->at("rate_mbps"), "50");
  EXPECT_EQ(lowered->at("burst_kb"), "128");
  EXPECT_EQ(lowered->at("direction"), "up");
  EXPECT_FALSE(
      translate_generic_config("policer", {{"upstream_only", "2"}}).is_ok());
}

TEST(PolicerEndToEnd, RatePlanEnforcedOnNode) {
  // 20 Mbit/s customer plan on a node with translation enabled; offer
  // 100 Mbit/s upstream and check the WAN side sees ~20.
  core::UniversalNodeConfig config;
  config.generic_config_translation = true;
  // The token bucket refills on the clock the source's rate is set in.
  config.modelled_timing = true;
  core::UniversalNode node(config);

  nffg::NfFg graph;
  graph.id = "plan";
  graph.add_nf("shaper", "policer").config = {
      {"generic", "1"}, {"rate_limit_mbps", "20"}, {"rate_burst_kb", "32"}};
  graph.add_endpoint("lan", "eth0");
  graph.add_endpoint("wan", "eth1");
  graph.connect("r1", nffg::endpoint_ref("lan"),
                nffg::nf_port("shaper", 0));
  graph.connect("r2", nffg::nf_port("shaper", 1),
                nffg::endpoint_ref("wan"));
  auto report = node.orchestrator().deploy(graph);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->placements[0].backend, virt::BackendKind::kNative);

  std::uint64_t wan_bytes = 0;
  (void)node.set_egress("eth1", [&](packet::PacketBuffer&& frame) {
    wan_bytes += frame.size();
  });
  traffic::UdpSourceConfig source_config;
  source_config.payload_bytes = 1400;
  source_config.packets_per_second = 100e6 / (1442.0 * 8.0);  // ~100 Mbit/s
  source_config.stop = 200 * sim::kMillisecond;
  traffic::UdpSource source(node.simulator(), source_config,
                            [&](packet::PacketBuffer&& frame) {
                              (void)node.inject("eth0", std::move(frame));
                            });
  source.begin();
  node.simulator().run();
  const double mbps = static_cast<double>(wan_bytes) * 8.0 / 0.2 / 1e6;
  EXPECT_NEAR(mbps, 20.0, 3.0);
}

}  // namespace
}  // namespace nnfv::nnf
