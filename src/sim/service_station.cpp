#include "sim/service_station.hpp"

#include <utility>

namespace nnfv::sim {

ServiceStation::ServiceStation(Simulator& simulator,
                               std::size_t queue_capacity)
    : simulator_(simulator), capacity_(queue_capacity) {}

bool ServiceStation::submit(SimTime service_time, Complete complete) {
  if (queue_.size() >= capacity_) {
    ++stats_.dropped;
    return false;
  }
  ++stats_.enqueued;
  queue_.push_back(Pending{service_time, std::move(complete)});
  if (!busy_) start_next();
  return true;
}

void ServiceStation::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending item = std::move(queue_.front());
  queue_.pop_front();
  stats_.busy_time += item.service_time;
  simulator_.schedule(item.service_time,
                      [this, complete = std::move(item.complete)]() mutable {
                        ++stats_.completed;
                        complete();
                        start_next();
                      });
}

double ServiceStation::utilization() const {
  const SimTime now = simulator_.now();
  if (now <= 0) return 0.0;
  return static_cast<double>(stats_.busy_time) / static_cast<double>(now);
}

}  // namespace nnfv::sim
