// Discrete-event core tests: ordering, determinism, stations.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/service_station.hpp"
#include "sim/simulator.hpp"

namespace nnfv::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(30, [&]() { order.push_back(3); });
  queue.schedule_at(10, [&]() { order.push_back(1); });
  queue.schedule_at(20, [&]() { order.push_back(2); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(5, [&order, i]() { order.push_back(i); });
  }
  while (!queue.empty()) queue.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeAndClear) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.schedule_at(77, []() {});
  EXPECT_EQ(queue.next_time(), 77);
  EXPECT_EQ(queue.size(), 1u);
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator simulator;
  SimTime seen = -1;
  simulator.schedule(100, [&]() { seen = simulator.now(); });
  simulator.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(simulator.now(), 100);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator simulator;
  std::vector<SimTime> times;
  simulator.schedule(10, [&]() {
    times.push_back(simulator.now());
    simulator.schedule(5, [&]() { times.push_back(simulator.now()); });
  });
  simulator.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, RunUntilStopsAndSetsClock) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(10, [&]() { ++fired; });
  simulator.schedule(100, [&]() { ++fired; });
  const std::uint64_t processed = simulator.run_until(50);
  EXPECT_EQ(processed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), 50);
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ResetDropsPendingEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(10, [&]() { ++fired; });
  simulator.reset();
  EXPECT_TRUE(simulator.idle());
  simulator.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(simulator.now(), 0);
}

TEST(TransmissionTime, Math) {
  // 1000 bytes at 1 Gbps = 8 us.
  EXPECT_EQ(transmission_time(1000, 1e9), 8000);
  // 1500 bytes at 100 Mbps = 120 us.
  EXPECT_EQ(transmission_time(1500, 1e8), 120000);
}

TEST(ServiceStation, ServesFifoWithServiceTimes) {
  Simulator simulator;
  ServiceStation station(simulator);
  std::vector<SimTime> completions;
  station.submit(100, [&]() { completions.push_back(simulator.now()); });
  station.submit(50, [&]() { completions.push_back(simulator.now()); });
  simulator.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 100);  // first in, first served
  EXPECT_EQ(completions[1], 150);  // queued behind
}

TEST(ServiceStation, UtilizationReflectsBusyTime) {
  Simulator simulator;
  ServiceStation station(simulator);
  station.submit(600, []() {});
  simulator.run_until(1000);
  EXPECT_DOUBLE_EQ(station.utilization(), 0.6);
}

TEST(ServiceStation, SaturationThroughputMatchesServiceRate) {
  // Offered >> capacity: completions per second == 1/service_time.
  Simulator simulator;
  ServiceStation station(simulator, /*queue_capacity=*/64);
  const SimTime service = 10 * kMicrosecond;
  std::uint64_t completed = 0;

  // Closed-loop feeder: keep the queue topped up.
  std::function<void()> feed = [&]() {
    while (station.queue_depth() < 32) {
      if (!station.submit(service, [&]() { ++completed; })) break;
    }
    if (simulator.now() < kSecond) {
      simulator.schedule(50 * kMicrosecond, feed);
    }
  };
  simulator.schedule(0, feed);
  simulator.run_until(kSecond);
  // 1 second / 10 us = 100k completions (+- feeder edge effects).
  EXPECT_NEAR(static_cast<double>(completed), 100000.0, 200.0);
}

TEST(ServiceStation, DropsWhenQueueFull) {
  Simulator simulator;
  ServiceStation station(simulator, /*queue_capacity=*/1);
  int completed = 0;
  EXPECT_TRUE(station.submit(10, [&]() { ++completed; }));
  EXPECT_TRUE(station.submit(10, [&]() { ++completed; }));  // queued
  // Server busy, queue holds 1 => reject.
  EXPECT_FALSE(station.submit(10, [&]() { ++completed; }));
  simulator.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(station.stats().dropped, 1u);
}

}  // namespace
}  // namespace nnfv::sim
