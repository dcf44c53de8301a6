#include "exec/watchdog.hpp"

#include <algorithm>

#include "exec/datapath_executor.hpp"
#include "util/logging.hpp"

namespace nnfv::exec {

Watchdog::Watchdog(DatapathExecutor& executor, WatchdogConfig config)
    : executor_(executor), config_(config) {
  config_.stall_timeout_ms = std::max<std::uint64_t>(
      config_.stall_timeout_ms, 1);
  const auto now = std::chrono::steady_clock::now();
  tracks_.resize(executor_.worker_count());
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    tracks_[i].last_heartbeat = executor_.worker_heartbeat(i);
    tracks_[i].last_progress = now;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
    }
    wakeup_.notify_one();
  }
  if (thread_.joinable()) thread_.join();
}

void Watchdog::run() {
  const auto poll = std::chrono::milliseconds(
      std::max<std::uint64_t>(config_.stall_timeout_ms / 4, 1));
  std::unique_lock<std::mutex> lock(mutex_);
  while (running_.load(std::memory_order_acquire)) {
    wakeup_.wait_for(lock, poll);
    if (!running_.load(std::memory_order_acquire)) break;
    poll_once(std::chrono::steady_clock::now());
  }
}

void Watchdog::poll_once(std::chrono::steady_clock::time_point now) {
  const auto timeout = std::chrono::milliseconds(config_.stall_timeout_ms);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    Track& track = tracks_[i];
    const std::uint64_t heartbeat = executor_.worker_heartbeat(i);
    if (heartbeat != track.last_heartbeat) {
      track.last_heartbeat = heartbeat;
      track.last_progress = now;
      track.flagged = false;
      continue;
    }
    // Frozen heartbeat. Only a worker with pending frames is stalled —
    // an idle frozen worker blackholes nothing (and a healthy idle
    // worker heartbeats anyway: its doorbell sleep is bounded).
    if (track.flagged || now - track.last_progress < timeout ||
        !executor_.worker_has_backlog(i)) {
      continue;
    }
    track.flagged = true;
    stalls_detected_.fetch_add(1, std::memory_order_relaxed);
    executor_.note_stall(i);
    NNFV_LOG(kWarn, "watchdog")
        << "worker " << i << " stalled (heartbeat frozen "
        << config_.stall_timeout_ms << "ms with backlog)";
    if (!config_.restart_stalled) continue;
    executor_.restart_worker(i);
    restarts_performed_.fetch_add(1, std::memory_order_relaxed);
    // The respawned thread starts a fresh heartbeat history.
    track.last_heartbeat = executor_.worker_heartbeat(i);
    track.last_progress = now;
    track.flagged = false;
  }
}

}  // namespace nnfv::exec
