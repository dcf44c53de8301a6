// Simulator: clock + event queue + run loops.
//
// Single-threaded by design. Only the modelled-timing path schedules on
// it: traffic sources and the service stations of NF instances on a node
// built with UniversalNodeConfig::modelled_timing (docs/datapath.md §6).
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace nnfv::sim {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `handler` `delay` ns from now (delay >= 0).
  void schedule(SimTime delay, EventQueue::Handler handler);

  /// Schedules at an absolute time (>= now()).
  void schedule_at(SimTime at, EventQueue::Handler handler);

  /// Runs until the queue drains. Returns the number of events processed.
  std::uint64_t run();

  /// Runs events with timestamp <= `until`; the clock ends at `until` even
  /// if the queue drained earlier. Returns events processed.
  std::uint64_t run_until(SimTime until);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Drops all pending events and rewinds the clock to zero.
  void reset();

 private:
  EventQueue queue_;
  SimTime now_ = 0;
};

}  // namespace nnfv::sim
