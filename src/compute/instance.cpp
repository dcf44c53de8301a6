#include "compute/instance.hpp"

#include <memory>

namespace nnfv::compute {

std::string_view instance_state_name(InstanceState state) {
  switch (state) {
    case InstanceState::kCreated:
      return "created";
    case InstanceState::kRunning:
      return "running";
    case InstanceState::kStopped:
      return "stopped";
    case InstanceState::kDestroyed:
      return "destroyed";
  }
  return "?";
}

NfInstance::NfInstance(InstanceId id, std::string name,
                       std::unique_ptr<nnf::NetworkFunction> function,
                       virt::CostModel cost, sim::Simulator& simulator,
                       std::size_t queue_capacity)
    : id_(id),
      name_(std::move(name)),
      function_(std::move(function)),
      cost_(cost),
      simulator_(simulator),
      station_(simulator, queue_capacity) {}

void NfInstance::set_burst_egress(nnf::ContextId ctx, BurstEgress egress) {
  egress_[ctx] = std::move(egress);
}

void NfInstance::clear_egress(nnf::ContextId ctx) { egress_.erase(ctx); }

template <typename Handler>
void NfInstance::submit(packet::PacketBurst&& burst, Handler handler) {
  if (state_ != InstanceState::kRunning) {
    dropped_not_running_ += burst.size();
    return;
  }
  if (burst.empty()) return;
  sim::SimTime service = 0;
  for (const packet::PacketBuffer& frame : burst) {
    service += cost_.service_time(frame.size());
  }
  auto held = std::make_shared<packet::PacketBurst>(std::move(burst));
  station_.submit(service, [handler = std::move(handler), held]() {
    handler(std::move(*held));
  });
}

void NfInstance::inject(nnf::ContextId ctx, nnf::NfPortIndex port,
                        packet::PacketBuffer&& frame) {
  inject_burst(ctx, port, packet::burst_of(std::move(frame)));
}

void NfInstance::inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                              packet::PacketBurst&& burst) {
  submit(std::move(burst), [this, ctx, port](packet::PacketBurst&& held) {
    auto outputs = function_->process_burst(ctx, port, simulator_.now(),
                                            std::move(held));
    auto egress = egress_.find(ctx);
    if (egress == egress_.end()) return;
    // Regrouped per output port, same-port order preserved.
    packet::BurstGroups<nnf::NfPortIndex> groups;
    for (nnf::NfOutput& output : outputs) {
      groups.add(output.port, std::move(output.frame));
    }
    for (auto& [gp, g] : groups) egress->second(gp, std::move(g));
  });
}

void NfInstance::inject_custom_burst(
    packet::PacketBurst&& burst,
    std::function<void(packet::PacketBurst&&)> handler) {
  submit(std::move(burst), std::move(handler));
}

util::Status NfInstance::start() {
  if (state_ == InstanceState::kDestroyed) {
    return util::failed_precondition("instance destroyed");
  }
  state_ = InstanceState::kRunning;
  return util::Status::ok();
}

util::Status NfInstance::stop() {
  if (state_ != InstanceState::kRunning) {
    return util::failed_precondition("instance not running");
  }
  state_ = InstanceState::kStopped;
  return util::Status::ok();
}

util::Status NfInstance::destroy() {
  state_ = InstanceState::kDestroyed;
  return util::Status::ok();
}

}  // namespace nnfv::compute
