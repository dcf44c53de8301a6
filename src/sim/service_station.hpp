// ServiceStation: the queueing primitive of the simulated datapath.
//
// ServiceStation models a single-server queue whose service time is
// supplied per item — the NF instances of a modelled-timing node use it
// with the per-backend cost model, which is how the VM / Docker / native
// throughput differences arise. Single-threaded, like the Simulator.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulator.hpp"

namespace nnfv::sim {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;   ///< tail drops on a full queue
  std::uint64_t completed = 0;
  SimTime busy_time = 0;       ///< total time the server spent serving
};

/// Single-server FIFO with caller-supplied service time per item.
class ServiceStation {
 public:
  using Complete = std::function<void()>;

  ServiceStation(Simulator& simulator, std::size_t queue_capacity = 1024);

  /// Offers an item taking `service_time` ns of server time; `complete`
  /// runs when service finishes. Returns false on tail drop.
  bool submit(SimTime service_time, Complete complete);

  [[nodiscard]] const QueueStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] bool busy() const { return busy_; }

  /// Server utilisation over [0, now].
  [[nodiscard]] double utilization() const;

 private:
  void start_next();

  struct Pending {
    SimTime service_time;
    Complete complete;
  };

  Simulator& simulator_;
  std::size_t capacity_;
  std::deque<Pending> queue_;
  bool busy_ = false;
  QueueStats stats_;
};

}  // namespace nnfv::sim
