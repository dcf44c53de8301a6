// Worker watchdog: detects a datapath worker that has stopped making
// progress while it still has backlog, and recovers it by superseding
// its thread (DatapathExecutor::restart_worker).
//
// Detection is heartbeat-based: every worker bumps a per-loop epoch,
// and a healthy worker always advances it — the idle doorbell sleep is
// bounded at 500us — so "heartbeat frozen for stall_timeout_ms" means
// the thread is stuck (in the pipeline, in a fault-injected stall, on a
// wedged lock). Restarting an idle-but-frozen worker would be wasted
// churn, so recovery additionally requires backlog: frames waiting in
// the worker's ingress ring.
//
// The monitor thread polls at stall_timeout_ms / 4, so detection latency is stall_timeout..1.25*stall_timeout. Counters for
// detections and restarts live in the executor's per-worker stats
// (worker_stalls / worker_restarts in describe_stats()).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace nnfv::exec {

class DatapathExecutor;

struct WatchdogConfig {
  /// A worker whose heartbeat is frozen this long while it has backlog
  /// is declared stalled.
  std::uint64_t stall_timeout_ms = 200;
  /// Recover stalled workers (restart_worker). Off = detect and count
  /// only.
  bool restart_stalled = true;
};

class Watchdog {
 public:
  /// Starts the monitor thread. The executor must outlive the watchdog;
  /// stop (or destroy) the watchdog before stopping the executor.
  Watchdog(DatapathExecutor& executor, WatchdogConfig config);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stops and joins the monitor thread. Idempotent.
  void stop();

  std::uint64_t stalls_detected() const {
    return stalls_detected_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts_performed() const {
    return restarts_performed_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void poll_once(std::chrono::steady_clock::time_point now);

  struct Track {
    std::uint64_t last_heartbeat = 0;
    std::chrono::steady_clock::time_point last_progress;
    /// True while the worker is flagged stalled, so one stall is
    /// detected (and recovered) once, not once per poll.
    bool flagged = false;
  };

  DatapathExecutor& executor_;
  WatchdogConfig config_;
  std::vector<Track> tracks_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> stalls_detected_{0};
  std::atomic<std::uint64_t> restarts_performed_{0};
  std::mutex mutex_;
  std::condition_variable wakeup_;
  std::thread thread_;
};

}  // namespace nnfv::exec
