#include "sim/simulator.hpp"

#include <cassert>

namespace nnfv::sim {

void Simulator::schedule(SimTime delay, EventQueue::Handler handler) {
  assert(delay >= 0);
  queue_.schedule_at(now_ + delay, std::move(handler));
}

void Simulator::schedule_at(SimTime at, EventQueue::Handler handler) {
  assert(at >= now_);
  queue_.schedule_at(at, std::move(handler));
}

std::uint64_t Simulator::run() {
  std::uint64_t processed = 0;
  while (!queue_.empty()) {
    // Advance the clock before dispatching so handlers see now() == their
    // own timestamp.
    now_ = queue_.next_time();
    queue_.run_next();
    ++processed;
  }
  return processed;
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t processed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++processed;
  }
  now_ = until;
  return processed;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0;
}

}  // namespace nnfv::sim
