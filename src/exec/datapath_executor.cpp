#include "exec/datapath_executor.hpp"

#include <algorithm>
#include <chrono>

#include "exec/fault_inject.hpp"
#include "exec/priority.hpp"
#include "exec/rss.hpp"

namespace nnfv::exec {

namespace {

/// Max frames a worker pulls from its ingress ring per drain.
constexpr std::size_t kDrainBatch = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

DatapathExecutor::DatapathExecutor(DatapathExecutorConfig config,
                                   Pipeline pipeline)
    : config_(config), pipeline_(std::move(pipeline)) {
  config_.workers = std::clamp<std::size_t>(config_.workers, 1, kMaxWorkers);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->ingress =
        std::make_unique<SpscRing<WorkItem>>(config_.ring_capacity);
    workers_.push_back(std::move(worker));
  }
  // Resolve shedding watermarks against the rounded-up ring capacity.
  const std::size_t cap = workers_[0]->ingress->capacity();
  shed_high_ = config_.shed_high_watermark != 0 ? config_.shed_high_watermark
                                                : cap * 3 / 4;
  shed_low_ = config_.shed_low_watermark != 0 ? config_.shed_low_watermark
                                              : cap / 2;
  shed_hard_ = config_.shed_hard_watermark != 0 ? config_.shed_hard_watermark
                                                : cap - cap / 16;
  shed_high_ = std::min(shed_high_, cap);
  shed_hard_ = std::clamp(shed_hard_, shed_high_, cap);
  shed_low_ = std::min(shed_low_, shed_high_ > 0 ? shed_high_ - 1 : 0);
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { run_worker(i, 0); });
  }
}

DatapathExecutor::~DatapathExecutor() { stop(); }

bool DatapathExecutor::should_shed(Worker& worker,
                                   const packet::PacketBuffer& frame) {
  const std::size_t occupancy = worker.ingress->producer_size();
  bool shedding = worker.shedding.load();
  if (shedding) {
    if (occupancy <= shed_low_) {
      shedding = false;
      worker.shedding.store(false);
    }
  } else if (occupancy >= shed_high_) {
    shedding = true;
    worker.shedding.store(true);
  }
  if (!shedding) return false;
  // Classification happens only here — when the shard is already past
  // the watermark — so uncongested traffic never pays for the parse.
  if (classify_priority(frame.data()) == FramePriority::kBulk) {
    worker.stats.shed_bulk += 1;
    return true;
  }
  if (occupancy >= shed_hard_) {
    worker.stats.shed_control += 1;
    return true;
  }
  return false;
}

std::size_t DatapathExecutor::submit_burst(std::uint32_t tag,
                                           packet::PacketBurst&& burst) {
  std::size_t enqueued = 0;
  const std::size_t n = worker_count();
  for (packet::PacketBuffer& frame : burst) {
    const std::size_t shard = shard_for(rss_hash_frame(frame.data()), n);
    Worker& worker = *workers_[shard];
    if (config_.shed_enabled && should_shed(worker, frame)) {
      continue;  // frame dies with the burst; its segment recycles
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    WorkItem item{tag, std::move(frame)};
    bool pushed = true;
    while (!worker.ingress->push(std::move(item))) {
      if (!config_.block_on_full ||
          !running_.load(std::memory_order_acquire)) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        worker.stats.ingress_drops += 1;
        pushed = false;
        break;
      }
      ring_doorbell(shard);
      cpu_relax();
    }
    if (pushed) {
      ring_doorbell(shard);
      ++enqueued;
    }
  }
  burst.clear();
  return enqueued;
}

bool DatapathExecutor::submit_to(std::size_t worker, std::uint32_t tag,
                                 packet::PacketBuffer&& frame) {
  if (worker >= worker_count()) return false;
  Worker& target = *workers_[worker];
  if (config_.shed_enabled && should_shed(target, frame)) return false;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  WorkItem item{tag, std::move(frame)};
  while (!target.ingress->push(std::move(item))) {
    if (!config_.block_on_full || !running_.load(std::memory_order_acquire)) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      target.stats.ingress_drops += 1;
      return false;
    }
    ring_doorbell(worker);
    cpu_relax();
  }
  ring_doorbell(worker);
  return true;
}

void DatapathExecutor::ring_doorbell(std::size_t worker) {
  Worker& target = *workers_[worker];
  if (target.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(target.doorbell_mutex);
    target.doorbell.notify_one();
  }
}

std::size_t DatapathExecutor::drain_ring(Worker& worker,
                                         std::vector<WorkItem>& items) {
  items.clear();
  if (worker.ingress->pop_batch(items, kDrainBatch) == 0) return 0;
  const std::size_t processed = items.size();
  // Deliver contiguous same-tag runs as one burst; the common case is a
  // whole batch sharing one ingress tag.
  std::size_t begin = 0;
  while (begin < items.size()) {
    std::size_t end = begin + 1;
    while (end < items.size() && items[end].tag == items[begin].tag) ++end;
    packet::PacketBurst group;
    group.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      group.push_back(std::move(items[i].frame));
    }
    pipeline_(items[begin].tag, std::move(group));
    begin = end;
  }
  // Counted before the release below, so a drain() that observes
  // inflight_ == 0 also observes the count.
  worker.stats.processed += processed;
  inflight_.fetch_sub(processed, std::memory_order_release);
  return processed;
}

void DatapathExecutor::run_worker(std::size_t index,
                                  std::uint32_t my_generation) {
  Worker& self = *workers_[index];
  ScopedWorkerSlot slot_guard(index + 1);
  std::vector<WorkItem> items;
  items.reserve(kDrainBatch);

  // Supersession check: once the watchdog bumps the generation, this
  // thread must not touch the ring again — the respawned thread is the
  // single consumer now. Checked before every drain; see
  // docs/datapath.md for the recovery contract.
  auto superseded = [&] {
    return self.generation.load(std::memory_order_acquire) != my_generation;
  };

  auto poll_ring = [&]() -> std::size_t {
    return superseded() ? 0 : drain_ring(self, items);
  };

  int idle_spins = 0;
  while (running_.load(std::memory_order_acquire) && !superseded()) {
    // The heartbeat bumps before any work: a worker stuck inside the
    // pipeline (or the stall hook below) freezes it, which is exactly
    // what the watchdog watches for.
    self.heartbeat.fetch_add(1, std::memory_order_release);
    if (FaultInjector::active()) [[unlikely]] {
      FaultInjector::instance().maybe_stall(index, [&] {
        return !running_.load(std::memory_order_acquire) || superseded();
      });
      if (superseded()) break;
    }
    if (poll_ring() > 0) {
      idle_spins = 0;
      continue;
    }
    // Idle backoff: spin, then yield, then sleep on the doorbell. The
    // sleep is bounded (500us), so an idle worker still heartbeats.
    ++idle_spins;
    if (idle_spins < 64) {
      cpu_relax();
    } else if (idle_spins < 128) {
      std::this_thread::yield();
    } else {
      std::unique_lock<std::mutex> lock(self.doorbell_mutex);
      self.sleeping.store(true, std::memory_order_seq_cst);
      // Re-check after publishing sleeping: a producer that pushed just
      // before the store will see sleeping==true and knock; one that
      // pushed earlier is caught by this check.
      if (self.ingress->empty_approx() &&
          running_.load(std::memory_order_acquire) && !superseded()) {
        self.doorbell.wait_for(lock, std::chrono::microseconds(500));
      }
      self.sleeping.store(false, std::memory_order_seq_cst);
    }
  }
  if (superseded()) return;  // the new generation owns the ring
  // Final drain so stop() never strands frames in the ring.
  while (poll_ring() > 0) {
  }
}

void DatapathExecutor::note_stall(std::size_t worker) {
  if (worker >= worker_count()) return;
  workers_[worker]->stats.stalls += 1;
}

void DatapathExecutor::restart_worker(std::size_t worker) {
  if (worker >= worker_count()) return;
  Worker& target = *workers_[worker];
  // Supersede first: the old thread (wherever it is stuck) exits at its
  // next generation check and never touches the ring again.
  const std::uint32_t next_gen =
      target.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  ring_doorbell(worker);  // wake it if it is asleep so it can exit
  {
    // The old thread may be blocked indefinitely; joining here would
    // inherit the stall. Park it for stop() to join.
    std::lock_guard<std::mutex> lock(retired_mutex_);
    if (target.thread.joinable()) {
      retired_.push_back(std::move(target.thread));
    }
  }
  target.stats.restarts += 1;
  target.thread =
      std::thread([this, worker, next_gen] { run_worker(worker, next_gen); });
}

void DatapathExecutor::drain() {
  while (inflight_.load(std::memory_order_acquire) != 0) {
    for (std::size_t i = 0; i < worker_count(); ++i) ring_doorbell(i);
    std::this_thread::yield();
  }
}

void DatapathExecutor::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (auto& worker : workers_) {
      std::lock_guard<std::mutex> lock(worker->doorbell_mutex);
      worker->doorbell.notify_one();
    }
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  std::lock_guard<std::mutex> lock(retired_mutex_);
  for (std::thread& thread : retired_) {
    if (thread.joinable()) thread.join();
  }
  retired_.clear();
}

WorkerStats DatapathExecutor::worker_stats(std::size_t worker) const {
  if (worker >= worker_count()) return {};
  const Worker& w = *workers_[worker];
  const LiveStats& live = w.stats;
  WorkerStats stats;
  stats.processed = live.processed;
  stats.ingress_drops = live.ingress_drops;
  stats.shed_bulk = live.shed_bulk;
  stats.shed_control = live.shed_control;
  stats.stalls = live.stalls;
  stats.restarts = live.restarts;
  stats.heartbeat = w.heartbeat.load(std::memory_order_acquire);
  stats.occupancy = w.ingress->size_approx();
  return stats;
}

std::uint64_t DatapathExecutor::total_processed() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->stats.processed;
  return total;
}

std::uint64_t DatapathExecutor::ingress_drops() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->stats.ingress_drops;
  return total;
}

std::uint64_t DatapathExecutor::worker_heartbeat(std::size_t worker) const {
  if (worker >= worker_count()) return 0;
  return workers_[worker]->heartbeat.load(std::memory_order_acquire);
}

bool DatapathExecutor::worker_has_backlog(std::size_t worker) const {
  if (worker >= worker_count()) return false;
  return !workers_[worker]->ingress->empty_approx();
}

json::Value DatapathExecutor::describe_stats() const {
  json::Object root;
  root["workers"] = static_cast<std::uint64_t>(worker_count());
  json::Array per_worker;
  std::uint64_t shed_bulk = 0, shed_control = 0;
  std::uint64_t stalls = 0, restarts = 0;
  for (std::size_t i = 0; i < worker_count(); ++i) {
    const WorkerStats stats = worker_stats(i);
    json::Object w;
    w["index"] = static_cast<std::uint64_t>(i);
    w["heartbeat"] = stats.heartbeat;
    w["occupancy"] = stats.occupancy;
    w["processed"] = stats.processed;
    w["ingress_drops"] = stats.ingress_drops;
    w["shed_bulk"] = stats.shed_bulk;
    w["shed_control"] = stats.shed_control;
    w["stalls"] = stats.stalls;
    w["restarts"] = stats.restarts;
    w["shedding"] = workers_[i]->shedding.load();
    per_worker.push_back(std::move(w));
    shed_bulk += stats.shed_bulk;
    shed_control += stats.shed_control;
    stalls += stats.stalls;
    restarts += stats.restarts;
  }
  root["per_worker"] = std::move(per_worker);
  root["total_processed"] = total_processed();
  root["ingress_drops"] = ingress_drops();
  root["shed_bulk"] = shed_bulk;
  root["shed_control"] = shed_control;
  root["worker_stalls"] = stalls;
  root["worker_restarts"] = restarts;
  return json::Value(std::move(root));
}

}  // namespace nnfv::exec
