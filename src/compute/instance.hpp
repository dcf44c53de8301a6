// NfInstance: one running network function — the function logic, the
// backend it executes under, and the single-server queue that gives it
// backend-dependent per-packet timing in the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "nnf/network_function.hpp"
#include "sim/service_station.hpp"
#include "sim/simulator.hpp"
#include "virt/cost_model.hpp"

namespace nnfv::compute {

using InstanceId = std::uint64_t;

enum class InstanceState { kCreated, kRunning, kStopped, kDestroyed };

std::string_view instance_state_name(InstanceState state);

class NfInstance {
 public:
  /// Where processed frames go, per context: all frames one function call
  /// emits on one logical port, in one call.
  using BurstEgress =
      std::function<void(nnf::NfPortIndex, packet::PacketBurst&&)>;

  NfInstance(InstanceId id, std::string name,
             std::unique_ptr<nnf::NetworkFunction> function,
             virt::CostModel cost, sim::Simulator& simulator,
             std::size_t queue_capacity = 512);

  [[nodiscard]] InstanceId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] InstanceState state() const { return state_; }
  [[nodiscard]] const virt::CostModel& cost() const { return cost_; }

  nnf::NetworkFunction& function() { return *function_; }
  [[nodiscard]] const nnf::NetworkFunction& function() const {
    return *function_;
  }

  void set_burst_egress(nnf::ContextId ctx, BurstEgress egress);
  void clear_egress(nnf::ContextId ctx);

  /// Datapath entry: a burst arrives at logical `port` of context `ctx`.
  /// The whole burst is one service-station item whose service time is
  /// the sum of the per-frame times; after it, the function runs once
  /// (process_burst) and its outputs leave through the context's egress,
  /// grouped per output port. Running instances only; otherwise the
  /// burst is dropped.
  void inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                    packet::PacketBurst&& burst);

  /// Burst-of-1 wrapper over inject_burst.
  void inject(nnf::ContextId ctx, nnf::NfPortIndex port,
              packet::PacketBuffer&& frame);

  /// Datapath entry for adaptation-layer deployments: same service-station
  /// item as inject_burst, but after the delay `handler` receives the
  /// burst back instead of the function — the adaptation layer then
  /// demultiplexes it in one pass.
  void inject_custom_burst(packet::PacketBurst&& burst,
                           std::function<void(packet::PacketBurst&&)> handler);

  util::Status start();
  util::Status stop();
  util::Status destroy();

  [[nodiscard]] const sim::QueueStats& queue_stats() const {
    return station_.stats();
  }
  [[nodiscard]] double utilization() const { return station_.utilization(); }
  [[nodiscard]] std::uint64_t dropped_not_running() const {
    return dropped_not_running_;
  }

 private:
  /// Queues `burst` for its summed service time, then runs
  /// `handler(PacketBurst&&)` on it.
  template <typename Handler>
  void submit(packet::PacketBurst&& burst, Handler handler);

  InstanceId id_;
  std::string name_;
  std::unique_ptr<nnf::NetworkFunction> function_;
  virt::CostModel cost_;
  sim::Simulator& simulator_;
  sim::ServiceStation station_;
  std::map<nnf::ContextId, BurstEgress> egress_;
  InstanceState state_ = InstanceState::kCreated;
  std::uint64_t dropped_not_running_ = 0;
};

}  // namespace nnfv::compute
