// Traffic module tests: source pacing, sink windows, measurement harness.
#include <gtest/gtest.h>

#include "packet/flow_key.hpp"
#include "sim/service_station.hpp"
#include "traffic/measure.hpp"
#include "traffic/sink.hpp"
#include "traffic/source.hpp"
#include "util/byteorder.hpp"

namespace nnfv::traffic {
namespace {

TEST(UdpSource, CbrPacingAndFraming) {
  sim::Simulator simulator;
  UdpSourceConfig config;
  config.packets_per_second = 1000.0;  // 1 ms apart
  config.payload_bytes = 100;
  config.stop = 10 * sim::kMillisecond;
  std::vector<sim::SimTime> arrivals;
  std::size_t frame_size = 0;
  UdpSource source(simulator, config,
                   [&](packet::PacketBuffer&& frame) {
                     arrivals.push_back(simulator.now());
                     frame_size = frame.size();
                   });
  source.begin();
  simulator.run();
  EXPECT_EQ(arrivals.size(), 10u);  // t=0..9ms
  EXPECT_EQ(arrivals[1] - arrivals[0], sim::kMillisecond);
  EXPECT_EQ(frame_size, 14u + 20u + 8u + 100u);
  EXPECT_EQ(source.sent_packets(), 10u);
  EXPECT_EQ(source.sent_bytes(), 10u * frame_size);
}

TEST(UdpSource, BurstModeKeepsOfferedRate) {
  sim::Simulator simulator;
  UdpSourceConfig config;
  config.packets_per_second = 1000.0;  // 1 ms apart
  config.payload_bytes = 100;
  config.burst_size = 4;
  config.stop = 10 * sim::kMillisecond;
  std::uint64_t single_frames = 0;
  std::vector<std::size_t> bursts;
  UdpSource source(simulator, config,
                   [&](packet::PacketBuffer&&) { ++single_frames; });
  source.set_burst_transmit([&](packet::PacketBurst&& burst) {
    bursts.push_back(burst.size());
  });
  source.begin();
  simulator.run();
  // 10 ms at 1000 pps = 10 packets worth of credit; bursts of 4 fire at
  // t=0 and 4ms, and the t=8ms burst is clipped to the remaining credit
  // of 2 — exactly the 10 packets the per-packet source would have sent.
  EXPECT_EQ(single_frames, 0u);
  ASSERT_EQ(bursts.size(), 3u);
  EXPECT_EQ(bursts[0], 4u);
  EXPECT_EQ(bursts[2], 2u);
  EXPECT_EQ(source.sent_packets(), 10u);
}

TEST(UdpSource, BurstWithoutBurstSinkFallsBackToSingles) {
  sim::Simulator simulator;
  UdpSourceConfig config;
  config.packets_per_second = 1000.0;
  config.burst_size = 4;
  config.stop = 8 * sim::kMillisecond;
  std::uint64_t frames = 0;
  UdpSource source(simulator, config,
                   [&](packet::PacketBuffer&&) { ++frames; });
  source.begin();
  simulator.run();
  EXPECT_EQ(frames, 8u);  // t=0 and t=4ms, 4 frames each
}

TEST(UdpSource, PoissonMeanRateApproximatesTarget) {
  sim::Simulator simulator;
  UdpSourceConfig config;
  config.packets_per_second = 10000.0;
  config.poisson = true;
  config.stop = sim::kSecond;
  std::uint64_t count = 0;
  UdpSource source(simulator, config,
                   [&](packet::PacketBuffer&&) { ++count; });
  source.begin();
  simulator.run();
  EXPECT_NEAR(static_cast<double>(count), 10000.0, 400.0);
}

TEST(UdpSource, FramesCarrySequenceNumbers) {
  sim::Simulator simulator;
  UdpSourceConfig config;
  config.packets_per_second = 1000.0;
  config.stop = 3 * sim::kMillisecond;
  std::vector<std::uint64_t> seqs;
  UdpSource source(simulator, config, [&](packet::PacketBuffer&& frame) {
    // Sequence is the first 8 payload bytes (offset 42 in the frame).
    seqs.push_back(util::load_be64(frame.data().data() + 42));
  });
  source.begin();
  simulator.run();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(ThroughputSink, WindowedCounting) {
  sim::Simulator simulator;
  ThroughputSink sink(simulator, 100, 200);
  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("1.1.1.1");
  spec.ip_dst = *packet::Ipv4Address::parse("2.2.2.2");
  static const std::vector<std::uint8_t> payload(100, 0);
  spec.payload = payload;

  simulator.schedule(50, [&]() {  // before the window: ignored
    sink.receive(packet::build_udp_frame(spec));
  });
  simulator.schedule(150, [&]() {  // inside: counted
    sink.receive(packet::build_udp_frame(spec));
  });
  simulator.schedule(250, [&]() {  // after: ignored
    sink.receive(packet::build_udp_frame(spec));
  });
  simulator.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(sink.total_packets(), 3u);
  EXPECT_EQ(sink.payload_bytes(), 100u);
  // 142 bytes in a 100 ns window.
  EXPECT_DOUBLE_EQ(sink.throughput_bps(), 142.0 * 8 * 1e9 / 100.0);
  EXPECT_DOUBLE_EQ(sink.goodput_bps(), 100.0 * 8 * 1e9 / 100.0);
}

TEST(Measurement, BottleneckStationLimitsGoodput) {
  // Datapath: source -> single-server station (10 us/packet) -> sink.
  // Offered 300kpps >> capacity 100kpps; goodput must reflect the station.
  sim::Simulator simulator;
  MeasurementConfig config;
  config.payload_bytes = 1000;
  config.offered_pps = 300000.0;
  config.warmup = 50 * sim::kMillisecond;
  config.duration = 500 * sim::kMillisecond;

  MeasurementHarness harness(simulator, config);
  sim::ServiceStation station(simulator, 128);
  auto result = harness.run([&](packet::PacketBuffer&& frame) {
    auto held = std::make_shared<packet::PacketBuffer>(std::move(frame));
    station.submit(10 * sim::kMicrosecond,
                   [&harness, held]() { harness.sink().receive(*held); });
  });

  // Capacity 100k pps * 1000 B payload = 800 Mbps goodput.
  EXPECT_NEAR(result.goodput_bps / 1e6, 800.0, 8.0);
  EXPECT_LT(result.delivery_ratio, 0.5);  // heavy overload: most dropped
  EXPECT_GT(result.delivered_packets, 0u);
  EXPECT_GT(result.offered_packets, result.delivered_packets);
}

TEST(Measurement, UnconstrainedPathDeliversOfferedLoad) {
  sim::Simulator simulator;
  MeasurementConfig config;
  config.payload_bytes = 500;
  config.offered_pps = 50000.0;
  config.warmup = 10 * sim::kMillisecond;
  config.duration = 200 * sim::kMillisecond;
  MeasurementHarness harness(simulator, config);
  auto result = harness.run([&](packet::PacketBuffer&& frame) {
    harness.sink().receive(frame);
  });
  // Everything arrives: goodput == offered payload rate.
  EXPECT_NEAR(result.goodput_bps / 1e6, 50000.0 * 500 * 8 / 1e6, 2.0);
  EXPECT_GT(result.delivery_ratio, 0.99);
}

TEST(UdpSource, FlowCountRotatesSourcePorts) {
  sim::Simulator simulator;
  UdpSourceConfig config;
  config.packets_per_second = 1000.0;
  config.stop = 8 * sim::kMillisecond;
  config.flow_count = 4;
  std::vector<std::uint16_t> ports;
  UdpSource source(simulator, config, [&](packet::PacketBuffer&& frame) {
    auto eth = packet::parse_ethernet(frame.data());
    auto tuple = packet::extract_five_tuple(
        frame.data().subspan(eth->wire_size()));
    ASSERT_TRUE(tuple.is_ok());
    ports.push_back(tuple->src_port);
  });
  source.begin();
  simulator.run();
  ASSERT_EQ(ports.size(), 8u);
  // Round-robin over [src_port, src_port + flow_count).
  for (std::size_t i = 0; i < ports.size(); ++i) {
    EXPECT_EQ(ports[i], config.src_port + i % 4);
  }
}

TEST(UdpSource, SingleFlowKeepsFixedTuple) {
  sim::Simulator simulator;
  UdpSourceConfig config;  // flow_count = 1 (default)
  config.packets_per_second = 1000.0;
  config.stop = 4 * sim::kMillisecond;
  std::vector<std::uint16_t> ports;
  UdpSource source(simulator, config, [&](packet::PacketBuffer&& frame) {
    auto eth = packet::parse_ethernet(frame.data());
    auto tuple = packet::extract_five_tuple(
        frame.data().subspan(eth->wire_size()));
    ports.push_back(tuple->src_port);
  });
  source.begin();
  simulator.run();
  for (std::uint16_t port : ports) EXPECT_EQ(port, config.src_port);
}

TEST(UdpSource, SourcesFromSameConfigGetDistinctSeeds) {
  sim::Simulator simulator;
  UdpSourceConfig config;  // every field default, seed = 42 for both
  UdpSource a(simulator, config, [](packet::PacketBuffer&&) {});
  UdpSource b(simulator, config, [](packet::PacketBuffer&&) {});
  // Identically-configured sources used to be clones (same payload, same
  // Poisson gap sequence); now each instance draws a unique stream.
  EXPECT_NE(a.effective_seed(), b.effective_seed());
}

}  // namespace
}  // namespace nnfv::traffic
