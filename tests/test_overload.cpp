// Overload-resilience tests: the fault-injection harness, the worker
// watchdog's stall-detect/restart recovery, and priority-aware load
// shedding with per-worker drop attribution.
//
// These suites (FaultInject.*, Watchdog.*, Overload.*) run under the
// TSan and ASan CI jobs: the recovery path supersedes a live thread, so
// a data race here is a real bug, not test noise.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "exec/datapath_executor.hpp"
#include "exec/fault_inject.hpp"
#include "exec/priority.hpp"
#include "exec/watchdog.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "packet/headers.hpp"
#include "packet/mbuf.hpp"

namespace nnfv {
namespace {

using namespace std::chrono_literals;

packet::PacketBuffer make_udp(std::uint32_t flow, std::uint16_t sport,
                              std::uint16_t dport = 4789) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0x11);
  spec.eth_dst = packet::MacAddress::from_id(0x22);
  spec.ip_src = packet::Ipv4Address{0x0A000000u + flow};  // 10.0.x.x
  spec.ip_dst = *packet::Ipv4Address::parse("192.0.2.1");
  spec.src_port = sport;
  spec.dst_port = dport;
  static const std::vector<std::uint8_t> payload(64, 0xAB);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

packet::PacketBuffer make_arp() {
  std::array<std::uint8_t, 42> raw{};
  packet::EthernetHeader eth;
  eth.dst = packet::MacAddress::from_id(0xFF);
  eth.src = packet::MacAddress::from_id(0x11);
  eth.ether_type = packet::kEtherTypeArp;
  packet::write_ethernet(eth, raw);
  return packet::PacketBuffer::copy_of(raw);
}

packet::PacketBuffer make_esp(std::uint32_t spi) {
  std::array<std::uint8_t, 14 + 20 + 8> raw{};
  packet::EthernetHeader eth;
  eth.dst = packet::MacAddress::from_id(0x22);
  eth.src = packet::MacAddress::from_id(0x11);
  eth.ether_type = packet::kEtherTypeIpv4;
  packet::write_ethernet(eth, raw);
  packet::Ipv4Header ip;
  ip.total_length = 20 + 8;
  ip.protocol = packet::kIpProtoEsp;
  ip.src = *packet::Ipv4Address::parse("198.51.100.1");
  ip.dst = *packet::Ipv4Address::parse("198.51.100.2");
  packet::write_ipv4(ip, std::span(raw).subspan(14));
  packet::EspHeader esp;
  esp.spi = spi;
  esp.sequence = 1;
  packet::write_esp(esp, std::span(raw).subspan(34));
  return packet::PacketBuffer::copy_of(raw);
}

/// Enables the fault injector for one test and guarantees a clean,
/// disabled harness afterwards, whatever the test's outcome.
struct ScopedFaultInjection {
  ScopedFaultInjection() { exec::FaultInjector::instance().set_enabled(true); }
  ~ScopedFaultInjection() {
    exec::FaultInjector::instance().reset();
    exec::FaultInjector::instance().set_enabled(false);
  }
};

/// Polls `cond` up to `timeout`; true when it became true.
template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

std::uint64_t pool_outstanding() {
  const packet::MbufPoolStats s = packet::MbufPool::global_stats();
  return s.segment_allocs - s.segment_frees;
}

// ---------------------------------------------------------------------------
// FaultInject
// ---------------------------------------------------------------------------

TEST(FaultInject, InertWhenNothingIsArmed) {
  exec::FaultInjector& injector = exec::FaultInjector::instance();
  EXPECT_EQ(injector.stalled_threads(), 0u);
  EXPECT_EQ(injector.hoarded(), 0u);
  // An armed-then-reset harness goes back to inert: the stall hook
  // returns without capturing the thread, so it never polls `abort`.
  ScopedFaultInjection scoped;
  injector.stall_worker(0);
  injector.reset();
  int abort_polls = 0;
  injector.maybe_stall(0, [&] {
    ++abort_polls;
    return true;
  });
  EXPECT_EQ(abort_polls, 0);
  EXPECT_EQ(injector.stalled_threads(), 0u);
}

TEST(FaultInject, StallCapturesExactlyOneThreadAndReleases) {
  ScopedFaultInjection scoped;
  exec::FaultInjector& injector = exec::FaultInjector::instance();
  std::array<std::atomic<std::uint64_t>, 2> processed{};
  exec::DatapathExecutorConfig config;
  config.workers = 2;
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&& burst) {
        processed[exec::current_worker_slot() - 1].fetch_add(burst.size());
      });
  injector.stall_worker(0);
  ASSERT_TRUE(eventually([&] { return injector.stalled_threads() == 1; }));
  // The other worker keeps processing while worker 0 is captured.
  ASSERT_TRUE(executor.submit_to(1, 0, make_udp(1, 1000)));
  ASSERT_TRUE(eventually([&] { return processed[1].load() == 1; }));
  // Frames for the captured worker pile up in its ring untouched.
  ASSERT_TRUE(executor.submit_to(0, 0, make_udp(2, 1000)));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(processed[0].load(), 0u);
  injector.release_stall();
  executor.drain();
  EXPECT_EQ(processed[0].load(), 1u);
  EXPECT_TRUE(eventually([&] { return injector.stalled_threads() == 0; }));
  executor.stop();
}

TEST(FaultInject, PoolHoardForcesHeapOverflow) {
  ScopedFaultInjection scoped;
  exec::FaultInjector& injector = exec::FaultInjector::instance();
  packet::MbufPool pool(/*prealloc_segments=*/8, /*slab_segments=*/0);
  injector.hoard_segments(pool, 8);
  EXPECT_EQ(injector.hoarded(), 8u);
  EXPECT_EQ(pool.stats().segment_allocs, 8u);
  EXPECT_EQ(pool.stats().heap_allocs, 0u);
  // The pool is dry and cannot grow: the next alloc overflows to the
  // heap path (counted, never failing).
  packet::MbufSegment* overflow = pool.alloc(128);
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->owner, nullptr);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  overflow->refcount.store(0, std::memory_order_relaxed);
  packet::MbufPool::free_segment(overflow);
  injector.release_hoard();
  EXPECT_EQ(injector.hoarded(), 0u);
  // Accounting balanced: everything hoarded went back to the pool.
  const packet::MbufPoolStats stats = pool.stats();
  EXPECT_EQ(stats.segment_allocs, 9u);
  EXPECT_EQ(stats.segment_frees, 8u);  // the heap segment was deleted
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, DetectsStallAndRestartsWorker) {
  ScopedFaultInjection scoped;
  exec::FaultInjector& injector = exec::FaultInjector::instance();
  std::array<std::atomic<std::uint64_t>, 2> processed{};
  exec::DatapathExecutorConfig config;
  config.workers = 2;
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&& burst) {
        processed[exec::current_worker_slot() - 1].fetch_add(burst.size());
      });
  exec::WatchdogConfig wd;
  wd.stall_timeout_ms = 50;
  exec::Watchdog watchdog(executor, wd);

  injector.stall_worker(0);
  ASSERT_TRUE(eventually([&] { return injector.stalled_threads() == 1; }));
  const std::uint64_t outstanding_before = pool_outstanding();

  constexpr std::size_t kFrames = 64;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(executor.submit_to(0, 0, make_udp(1, 1000)));
  }
  // The watchdog must notice the frozen heartbeat + backlog, supersede
  // the captured thread and respawn; traffic on the shard then resumes.
  ASSERT_TRUE(
      eventually([&] { return watchdog.restarts_performed() == 1; }));
  executor.drain();
  EXPECT_EQ(processed[0].load(), kFrames);
  const exec::WorkerStats stats = executor.worker_stats(0);
  EXPECT_EQ(stats.stalls, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(watchdog.stalls_detected(), 1u);
  // The superseded thread was released by the generation bump.
  EXPECT_TRUE(eventually([&] { return injector.stalled_threads() == 0; }));

  watchdog.stop();
  executor.stop();
  // No pooled segment leaked across the restart: every frame that went
  // through the recovery window was processed and recycled.
  EXPECT_EQ(pool_outstanding(), outstanding_before);
  EXPECT_EQ(executor.worker_stats(1).restarts, 0u);
}

TEST(Watchdog, IdleWorkersAreNotRestarted) {
  exec::DatapathExecutorConfig config;
  config.workers = 2;
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&&) {});
  exec::WatchdogConfig wd;
  wd.stall_timeout_ms = 20;
  exec::Watchdog watchdog(executor, wd);
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(watchdog.stalls_detected(), 0u);
  EXPECT_EQ(watchdog.restarts_performed(), 0u);
  watchdog.stop();
  executor.stop();
}

TEST(Watchdog, DetectOnlyModeCountsButDoesNotRestart) {
  ScopedFaultInjection scoped;
  exec::FaultInjector& injector = exec::FaultInjector::instance();
  std::atomic<std::uint64_t> processed{0};
  exec::DatapathExecutorConfig config;
  config.workers = 1;
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&& burst) {
        processed.fetch_add(burst.size());
      });
  exec::WatchdogConfig wd;
  wd.stall_timeout_ms = 30;
  wd.restart_stalled = false;
  exec::Watchdog watchdog(executor, wd);
  injector.stall_worker(0);
  ASSERT_TRUE(eventually([&] { return injector.stalled_threads() == 1; }));
  ASSERT_TRUE(executor.submit_to(0, 0, make_udp(1, 1000)));
  ASSERT_TRUE(eventually([&] { return watchdog.stalls_detected() >= 1; }));
  EXPECT_EQ(watchdog.restarts_performed(), 0u);
  EXPECT_EQ(executor.worker_stats(0).restarts, 0u);
  injector.release_stall();
  executor.drain();
  EXPECT_EQ(processed.load(), 1u);
  watchdog.stop();
  executor.stop();
}

TEST(Watchdog, HeartbeatAdvancesOnIdleWorkers) {
  exec::DatapathExecutorConfig config;
  config.workers = 1;
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&&) {});
  const std::uint64_t first = executor.worker_heartbeat(0);
  // The idle loop's doorbell sleep is bounded, so the heartbeat keeps
  // moving with no traffic at all — the invariant stall detection needs.
  EXPECT_TRUE(eventually(
      [&] { return executor.worker_heartbeat(0) > first; }, 1000ms));
  executor.stop();
}

// ---------------------------------------------------------------------------
// Overload (priority shedding + drop attribution)
// ---------------------------------------------------------------------------

TEST(Overload, ClassifierSplitsControlFromBulk) {
  const auto bulk = make_udp(1, 40000);
  EXPECT_EQ(exec::classify_priority(bulk.data()),
            exec::FramePriority::kBulk);
  const auto arp = make_arp();
  EXPECT_EQ(exec::classify_priority(arp.data()),
            exec::FramePriority::kControl);
  const auto dhcp = make_udp(1, 68, 67);
  EXPECT_EQ(exec::classify_priority(dhcp.data()),
            exec::FramePriority::kControl);
  // ESP is bulk unless its SPI belongs to an in-flight rekey.
  const auto esp = make_esp(7001);
  EXPECT_EQ(exec::classify_priority(esp.data()),
            exec::FramePriority::kBulk);
  exec::ControlSpiRegistry::instance().add(7001);
  EXPECT_EQ(exec::classify_priority(esp.data()),
            exec::FramePriority::kControl);
  exec::ControlSpiRegistry::instance().remove(7001);
  EXPECT_EQ(exec::classify_priority(esp.data()),
            exec::FramePriority::kBulk);
}

TEST(Overload, BulkShedsAtHighWatermarkWhileControlSurvives) {
  ScopedFaultInjection scoped;
  exec::FaultInjector& injector = exec::FaultInjector::instance();
  exec::DatapathExecutorConfig config;
  config.workers = 1;
  config.ring_capacity = 64;
  config.block_on_full = false;
  config.shed_enabled = true;
  config.shed_high_watermark = 8;
  config.shed_low_watermark = 4;
  config.shed_hard_watermark = 10;
  std::atomic<std::uint64_t> processed{0};
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&& burst) {
        processed.fetch_add(burst.size());
      });
  // Freeze the only worker so ring occupancy is fully deterministic.
  injector.stall_worker(0);
  ASSERT_TRUE(eventually([&] { return injector.stalled_threads() == 1; }));

  // 30 bulk frames: occupancies 0..7 are admitted, the 9th submit sees
  // occupancy 8 == shed_high, arms shedding, and bulk sheds from there.
  packet::PacketBurst bulk;
  for (int i = 0; i < 30; ++i) bulk.push_back(make_udp(1, 40000));
  EXPECT_EQ(executor.submit_burst(0, std::move(bulk)), 8u);
  exec::WorkerStats stats = executor.worker_stats(0);
  EXPECT_EQ(stats.shed_bulk, 22u);
  EXPECT_EQ(stats.shed_control, 0u);

  // Control frames are still admitted (occupancy 8, 9 < shed_hard=10),
  // then shed once the hard watermark is reached.
  packet::PacketBurst control;
  for (int i = 0; i < 5; ++i) control.push_back(make_arp());
  EXPECT_EQ(executor.submit_burst(0, std::move(control)), 2u);
  stats = executor.worker_stats(0);
  EXPECT_EQ(stats.shed_control, 3u);
  EXPECT_EQ(stats.shed_bulk, 22u);
  EXPECT_EQ(stats.ingress_drops, 0u);  // shed ≠ tail drop

  // Hysteresis: once the worker drains below shed_low, bulk is admitted
  // again.
  injector.release_stall();
  executor.drain();
  EXPECT_EQ(processed.load(), 10u);
  packet::PacketBurst after;
  after.push_back(make_udp(1, 40000));
  EXPECT_EQ(executor.submit_burst(0, std::move(after)), 1u);
  executor.drain();
  stats = executor.worker_stats(0);
  EXPECT_EQ(stats.shed_bulk, 22u);  // unchanged
  EXPECT_EQ(processed.load(), 11u);
  executor.stop();
}

TEST(Overload, IngressDropsAreAttributedToTheHotShard) {
  ScopedFaultInjection scoped;
  exec::FaultInjector& injector = exec::FaultInjector::instance();
  exec::DatapathExecutorConfig config;
  config.workers = 2;
  config.ring_capacity = 4;  // rounds up to a usable capacity of 7
  config.block_on_full = false;
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&&) {});
  injector.stall_worker(0);
  ASSERT_TRUE(eventually([&] { return injector.stalled_threads() == 1; }));
  std::size_t accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (executor.submit_to(0, 0, make_udp(1, 1000))) ++accepted;
  }
  EXPECT_EQ(accepted, 7u);
  EXPECT_EQ(executor.worker_stats(0).ingress_drops, 13u);
  EXPECT_EQ(executor.worker_stats(1).ingress_drops, 0u);
  EXPECT_EQ(executor.ingress_drops(), 13u);
  injector.release_stall();
  executor.drain();
  executor.stop();
}

TEST(Overload, DescribeStatsExposesPerWorkerHealth) {
  exec::DatapathExecutorConfig config;
  config.workers = 2;
  exec::DatapathExecutor executor(
      config, [&](std::uint32_t, packet::PacketBurst&&) {});
  packet::PacketBurst burst;
  for (int i = 0; i < 16; ++i) burst.push_back(make_udp(i, 1000));
  executor.submit_burst(0, std::move(burst));
  executor.drain();
  const json::Value doc = executor.describe_stats();
  ASSERT_TRUE(doc.is_object());
  const json::Object& root = doc.as_object();
  ASSERT_TRUE(root.contains("per_worker"));
  const json::Array& workers = root.find("per_worker")->as_array();
  ASSERT_EQ(workers.size(), 2u);
  for (const json::Value& w : workers) {
    const json::Object& obj = w.as_object();
    for (const char* key :
         {"heartbeat", "occupancy", "processed", "ingress_drops",
          "shed_bulk", "shed_control", "stalls", "restarts"}) {
      EXPECT_TRUE(obj.contains(key)) << "missing key " << key;
    }
  }
  EXPECT_EQ(root.find("total_processed")->as_number(), 16.0);
  EXPECT_EQ(root.find("worker_restarts")->as_number(), 0.0);
  executor.stop();
}

TEST(Overload, IpsecRekeyTagsItsSpisControlPriority) {
  exec::ControlSpiRegistry& registry = exec::ControlSpiRegistry::instance();
  ASSERT_FALSE(registry.contains(31003));
  ASSERT_FALSE(registry.contains(32004));
  nnf::IpsecEndpoint endpoint;
  nnf::NfConfig config = {
      {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
      {"spi_out", "31001"},         {"spi_in", "32002"},
      {"enc_key", "000102030405060708090a0b0c0d0e0f"},
      {"auth_key",
       "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"},
      {"drain_ns", "1000"}};
  ASSERT_TRUE(endpoint.configure(nnf::kDefaultContext, config).is_ok());
  // No rekey in flight: nothing is control priority.
  EXPECT_FALSE(registry.contains(31001));

  nnf::NfConfig rekey = {{"rekey_spi_out", "31003"},
                         {"rekey_spi_in", "32004"},
                         {"rekey_enc_key", "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"},
                         {"rekey_cutover", "now"}};
  ASSERT_TRUE(endpoint.configure(nnf::kDefaultContext, rekey).is_ok());
  // Staged rekey: both new SPIs must survive load shedding.
  EXPECT_TRUE(registry.contains(31003));
  EXPECT_TRUE(registry.contains(32004));

  // Drive the cutover (immediate mode trips on the first packet) and
  // let the superseded SA pass its drain deadline.
  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
  spec.src_port = 5001;
  spec.dst_port = 5001;
  static const std::vector<std::uint8_t> payload(64, 0xCD);
  spec.payload = payload;
  auto enc =
      endpoint.process(nnf::kDefaultContext, 0, 0,
                       packet::build_udp_frame(spec));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_TRUE(registry.contains(31003));  // old SA still draining
  (void)endpoint.process(nnf::kDefaultContext, 0, 5000,
                         packet::build_udp_frame(spec));
  // Rekey fully complete: its SPIs are ordinary traffic again.
  EXPECT_FALSE(registry.contains(31003));
  EXPECT_FALSE(registry.contains(32004));
}

TEST(Overload, RemovingContextUnregistersControlSpis) {
  constexpr nnf::ContextId kCtx = 7;  // context 0 is undeletable
  exec::ControlSpiRegistry& registry = exec::ControlSpiRegistry::instance();
  nnf::IpsecEndpoint endpoint;
  ASSERT_TRUE(endpoint.add_context(kCtx).is_ok());
  nnf::NfConfig config = {
      {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
      {"spi_out", "41001"},         {"spi_in", "42002"},
      {"enc_key", "000102030405060708090a0b0c0d0e0f"},
      {"auth_key",
       "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"}};
  ASSERT_TRUE(endpoint.configure(kCtx, config).is_ok());
  nnf::NfConfig rekey = {{"rekey_spi_out", "41003"},
                         {"rekey_spi_in", "42004"},
                         {"rekey_enc_key", "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"}};
  ASSERT_TRUE(endpoint.configure(kCtx, rekey).is_ok());
  EXPECT_TRUE(registry.contains(41003));
  ASSERT_TRUE(endpoint.remove_context(kCtx).is_ok());
  EXPECT_FALSE(registry.contains(41003));
  EXPECT_FALSE(registry.contains(42004));
}

}  // namespace
}  // namespace nnfv
