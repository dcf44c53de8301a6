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
                       virt::CostModel cost, NfRuntime& runtime,
                       std::size_t queue_capacity)
    : id_(id),
      name_(std::move(name)),
      function_(std::move(function)),
      cost_(cost),
      runtime_(runtime) {
  if (runtime.simulator != nullptr) {
    station_.emplace(*runtime.simulator, queue_capacity);
  }
}

void NfInstance::set_burst_egress(nnf::ContextId ctx, BurstEgress egress) {
  egress_[ctx] = std::move(egress);
}

void NfInstance::clear_egress(nnf::ContextId ctx) { egress_.erase(ctx); }

template <typename Handler>
void NfInstance::submit(packet::PacketBurst&& burst, Handler handler) {
  std::lock_guard<std::recursive_mutex> lock(runtime_.nf_lock);
  if (state_ != InstanceState::kRunning) {
    dropped_not_running_ += burst.size();
    return;
  }
  if (burst.empty()) return;
  if (!station_) {
    handler(runtime_.now(), std::move(burst));
    return;
  }
  sim::SimTime service = 0;
  for (const packet::PacketBuffer& frame : burst) {
    service += cost_.service_time(frame.size());
  }
  auto held = std::make_shared<packet::PacketBurst>(std::move(burst));
  station_->submit(service, [this, handler = std::move(handler), held]() {
    handler(runtime_.now(), std::move(*held));
  });
}

void NfInstance::inject(nnf::ContextId ctx, nnf::NfPortIndex port,
                        packet::PacketBuffer&& frame) {
  inject_burst(ctx, port, packet::burst_of(std::move(frame)));
}

void NfInstance::inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                              packet::PacketBurst&& burst) {
  submit(std::move(burst), [this, ctx, port](sim::SimTime now,
                                             packet::PacketBurst&& held) {
    std::vector<nnf::NfOutput> outputs =
        function_->process_burst(ctx, port, now, std::move(held));
    auto egress = egress_.find(ctx);
    if (egress == egress_.end() || outputs.empty()) return;
    // Regrouped per output port, same-port order preserved.
    packet::PacketBurst frames;
    frames.reserve(outputs.size());
    for (nnf::NfOutput& output : outputs) {
      frames.push_back(std::move(output.frame));
    }
    packet::BurstGroups<nnf::NfPortIndex> groups(std::move(frames));
    for (const nnf::NfOutput& output : outputs) {
      groups.add(output.port, std::move(*groups.next()));
    }
    groups.flush([&](nnf::NfPortIndex out_port, packet::PacketBurst&& group) {
      egress->second(out_port, std::move(group));
    });
  });
}

void NfInstance::inject_custom_burst(
    packet::PacketBurst&& burst,
    std::function<void(sim::SimTime, packet::PacketBurst&&)> handler) {
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
