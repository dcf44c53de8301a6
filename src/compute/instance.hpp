// NfInstance: one running network function — the function logic, the
// backend it executes under, and how its hops run: to completion in the
// caller's thread (the default), or behind a single-server queue that
// gives it backend-dependent per-packet timing in the simulator (a
// modelled-timing node, docs/datapath.md §6).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "nnf/network_function.hpp"
#include "sim/service_station.hpp"
#include "sim/simulator.hpp"
#include "virt/cost_model.hpp"

namespace nnfv::compute {

using InstanceId = std::uint64_t;

enum class InstanceState { kCreated, kRunning, kStopped, kDestroyed };

std::string_view instance_state_name(InstanceState state);

/// What every NF hop of one node shares: where its `now` comes from and
/// the NF lock.
struct NfRuntime {
  /// Set on a modelled-timing node: hops wait out the service-time model
  /// in simulated time and `now` is the simulator clock.
  sim::Simulator* simulator = nullptr;
  /// Origin of the wall clock: `now` is monotonic ns since then.
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  /// The NF lock: serialises NF code (hops, deploy, update, undeploy,
  /// stats) across datapath workers. Re-entrant, because a hop runs the
  /// rest of the chain inside it.
  std::recursive_mutex nf_lock;

  [[nodiscard]] sim::SimTime now() const {
    if (simulator != nullptr) return simulator->now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }
};

class NfInstance {
 public:
  /// Where processed frames go, per context: all frames one function call
  /// emits on one logical port, in one call.
  using BurstEgress =
      std::function<void(nnf::NfPortIndex, packet::PacketBurst&&)>;

  /// `runtime` must outlive the instance.
  NfInstance(InstanceId id, std::string name,
             std::unique_ptr<nnf::NetworkFunction> function,
             virt::CostModel cost, NfRuntime& runtime,
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
  /// The function runs once (process_burst) with one `now` for the whole
  /// burst, and its outputs leave through the context's egress, grouped
  /// per output port. On a modelled node that happens after one
  /// service-station item whose service time is the sum of the per-frame
  /// times. Running instances only; otherwise the burst is dropped.
  void inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                    packet::PacketBurst&& burst);

  /// Burst-of-1 wrapper over inject_burst.
  void inject(nnf::ContextId ctx, nnf::NfPortIndex port,
              packet::PacketBuffer&& frame);

  /// Datapath entry for adaptation-layer deployments: the same hop as
  /// inject_burst, but `handler(now, burst)` receives the burst instead
  /// of the function — the adaptation layer then demultiplexes it in one
  /// pass.
  void inject_custom_burst(
      packet::PacketBurst&& burst,
      std::function<void(sim::SimTime, packet::PacketBurst&&)> handler);

  util::Status start();
  util::Status stop();
  util::Status destroy();

  /// Service-station counters; all zero on a wall-clock node.
  [[nodiscard]] sim::QueueStats queue_stats() const {
    return station_ ? station_->stats() : sim::QueueStats{};
  }
  [[nodiscard]] std::uint64_t dropped_not_running() const {
    return dropped_not_running_;
  }

 private:
  /// Runs `handler(now, burst)`: right away under the NF lock, or on a
  /// modelled (single-threaded) node once the station has served the
  /// burst's summed service time.
  template <typename Handler>
  void submit(packet::PacketBurst&& burst, Handler handler);

  InstanceId id_;
  std::string name_;
  std::unique_ptr<nnf::NetworkFunction> function_;
  virt::CostModel cost_;
  NfRuntime& runtime_;
  std::optional<sim::ServiceStation> station_;  ///< modelled node only
  std::map<nnf::ContextId, BurstEgress> egress_;
  InstanceState state_ = InstanceState::kCreated;
  std::uint64_t dropped_not_running_ = 0;
};

}  // namespace nnfv::compute
