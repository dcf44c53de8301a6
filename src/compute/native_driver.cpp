#include "compute/native_driver.hpp"

#include "packet/builder.hpp"
#include "util/logging.hpp"

namespace nnfv::compute {

using util::Result;
using util::Status;

NativeDriver::NativeDriver(NativeDriverEnv env) : env_(env) {}

bool NativeDriver::can_deploy(const std::string& functional_type) const {
  if (env_.catalog == nullptr || !env_.catalog->has(functional_type)) {
    return false;
  }
  return env_.catalog->can_share(functional_type) ||
         env_.catalog->can_instantiate(functional_type);
}

Result<std::shared_ptr<NativeDriver::Shared>> NativeDriver::create_instance(
    const std::string& functional_type,
    const std::shared_ptr<nnf::NnfPlugin>& plugin) {
  const nnf::NnfDescriptor& desc = plugin->descriptor();
  const InstanceId iid = next_instance_++;

  // Fresh network namespace + one veth pair per logical port ("the NNF
  // driver starts the NNF in a new network namespace").
  const std::string ns_name =
      "ns-" + functional_type + "-" + std::to_string(iid);
  auto ns = env_.netns->create(ns_name);
  if (!ns) return ns.status();
  for (std::uint32_t p = 0; p < desc.num_ports; ++p) {
    const std::string host_end =
        "veth-" + functional_type + std::to_string(iid) + "-" +
        std::to_string(p);
    Status veth = env_.netns->create_veth(netns::kRootNamespace, host_end,
                                          ns.value(),
                                          "eth" + std::to_string(p));
    if (!veth.is_ok()) {
      (void)env_.netns->destroy(ns_name);
      return veth;
    }
    (void)env_.netns->set_interface_up(ns.value(), "eth" + std::to_string(p),
                                       true);
  }

  const std::uint64_t base_ram =
      virt::instance_ram(virt::BackendKind::kNative, desc.memory);
  if (!env_.ram->reserve(base_ram)) {
    (void)env_.netns->destroy(ns_name);
    return util::resource_exhausted("RAM: native instance of '" +
                                    functional_type + "' needs " +
                                    std::to_string(base_ram) + " bytes");
  }

  auto function = plugin->create_function();
  if (!function) {
    env_.ram->release(base_ram);
    (void)env_.netns->destroy(ns_name);
    return function.status();
  }

  auto shared = std::make_shared<Shared>();
  shared->plugin = plugin;
  shared->ns_name = ns_name;
  shared->base_ram = base_ram;
  shared->instance = std::make_shared<NfInstance>(
      iid, "nnf/" + functional_type + "#" + std::to_string(iid),
      std::move(function.value()),
      virt::CostModel(virt::BackendKind::kNative, desc.compute),
      *env_.runtime);

  if (desc.single_interface) {
    shared->adaptation =
        std::make_unique<nnf::AdaptationLayer>(shared->instance->function());
    // Egress: frames leave the adaptation layer re-marked; route each on
    // its mark, strip the mark, and re-enter each destination LSI port's
    // pipeline with one receive_burst.
    Shared* raw = shared.get();
    shared->adaptation->set_burst_transmit(
        [raw](packet::PacketBurst&& burst) {
          packet::BurstGroups<std::pair<nfswitch::Lsi*, nfswitch::PortId>>
              groups(std::move(burst));
          while (packet::PacketBuffer* frame = groups.next()) {
            auto eth = packet::parse_ethernet(frame->data());
            if (!eth || !eth->vlan.has_value()) continue;
            auto route = raw->routes.find(*eth->vlan);
            if (route == raw->routes.end()) continue;
            packet::set_vlan(*frame, std::nullopt);
            groups.add(route->second, std::move(*frame));
          }
          groups.flush([](const std::pair<nfswitch::Lsi*, nfswitch::PortId>&
                              destination,
                          packet::PacketBurst&& group) {
            destination.first->receive_burst(destination.second,
                                             std::move(group));
          });
        });
  }

  Status start_status = shared->plugin->on_start(shared->instance->function());
  if (!start_status.is_ok()) {
    env_.ram->release(base_ram);
    (void)env_.netns->destroy(ns_name);
    return start_status;
  }
  NNFV_RETURN_IF_ERROR(shared->instance->start());

  running_[functional_type].push_back(shared);
  env_.catalog->status(functional_type).running_instances += 1;
  NNFV_LOG(kInfo, "compute") << "native: started NNF '" << functional_type
                             << "' in namespace " << ns_name;
  return shared;
}

Result<DeployedNf> NativeDriver::deploy(const NfDeploySpec& spec,
                                        nfswitch::Lsi& lsi) {
  std::lock_guard<std::recursive_mutex> lock(env_.runtime->nf_lock);
  const std::string key = deployment_key(spec.graph_id, spec.nf_id);
  if (deployments_.contains(key)) {
    return util::already_exists("native deployment " + key);
  }
  auto plugin = env_.catalog->plugin(spec.functional_type);
  if (!plugin) {
    return util::unavailable("no NNF plugin for '" + spec.functional_type +
                             "'");
  }
  const nnf::NnfDescriptor& desc = plugin.value()->descriptor();

  // Select or create the instance: prefer sharing a running instance (no
  // extra process), else spin up a new one within the instance limit.
  std::shared_ptr<Shared> shared;
  bool reused = false;
  auto running = running_.find(spec.functional_type);
  if (desc.sharable && running != running_.end() &&
      !running->second.empty()) {
    shared = running->second.front();
    reused = true;
  } else if (env_.catalog->can_instantiate(spec.functional_type)) {
    auto created = create_instance(spec.functional_type, plugin.value());
    if (!created) return created.status();
    shared = created.value();
  } else {
    return util::unavailable(
        "NNF '" + spec.functional_type +
        "' is at its instance limit and is not sharable");
  }

  Deployment dep;
  dep.shared = shared;
  dep.lsi = &lsi;
  dep.functional_type = spec.functional_type;
  dep.ctx = shared->next_ctx++;

  // Contexts beyond the first are new internal paths.
  std::uint64_t reported_ram = shared->base_ram;
  if (dep.ctx != nnf::kDefaultContext) {
    Status ctx_status = shared->instance->function().add_context(dep.ctx);
    if (!ctx_status.is_ok()) {
      shared->next_ctx--;
      return ctx_status;
    }
    dep.owned_ram = desc.memory.per_context_bytes;
    reported_ram = dep.owned_ram;
    if (!env_.ram->reserve(dep.owned_ram)) {
      (void)shared->instance->function().remove_context(dep.ctx);
      shared->next_ctx--;
      return util::resource_exhausted("RAM for NNF context");
    }
  }

  // "configures the NNF with a predefined configuration script".
  if (!spec.config.empty()) {
    Status config_status = shared->plugin->update(
        shared->instance->function(), dep.ctx, spec.config);
    if (!config_status.is_ok()) {
      if (dep.ctx != nnf::kDefaultContext) {
        (void)shared->instance->function().remove_context(dep.ctx);
        env_.ram->release(dep.owned_ram);
        shared->next_ctx--;
      }
      return config_status;
    }
  }

  // Wire the datapath.
  DeployedNf deployed;
  deployed.graph_id = spec.graph_id;
  deployed.nf_id = spec.nf_id;
  deployed.functional_type = spec.functional_type;
  deployed.backend = virt::BackendKind::kNative;
  deployed.instance = shared->instance->id();
  deployed.context = dep.ctx;
  deployed.ram_bytes = reported_ram;
  deployed.image_bytes = desc.package_bytes;
  deployed.boot_time = reused
                           ? virt::backend_cost(virt::BackendKind::kNative)
                                 .config_ns
                           : virt::backend_cost(virt::BackendKind::kNative)
                                 .boot_ns;
  deployed.reused_shared_instance = reused;

  const std::uint32_t ports =
      spec.num_ports == 0 ? static_cast<std::uint32_t>(desc.num_ports)
                          : spec.num_ports;
  auto rollback = [&]() {
    for (nfswitch::PortId created : dep.lsi_ports) {
      (void)lsi.remove_port(created);
    }
    for (const std::string& owner : dep.mark_owners) {
      (void)env_.marks->release(owner);
    }
    if (shared->adaptation != nullptr) {
      shared->adaptation->unbind_context(dep.ctx);
      for (nnf::Mark mark : dep.marks) shared->routes.erase(mark);
    }
    if (dep.ctx != nnf::kDefaultContext) {
      (void)shared->instance->function().remove_context(dep.ctx);
      env_.ram->release(dep.owned_ram);
      shared->next_ctx--;
    }
  };

  for (std::uint32_t p = 0; p < ports; ++p) {
    auto port = lsi.add_port(spec.nf_id + ":" + std::to_string(p));
    if (!port) {
      rollback();
      return port.status();
    }
    dep.lsi_ports.push_back(port.value());
    deployed.ports.push_back(PortAttachment{port.value(), std::nullopt});

    if (desc.single_interface) {
      // Shared single-interface path: allocate the per-(graph, port) mark,
      // bind it in the adaptation layer, and route egress back here.
      const std::string owner =
          "g:" + spec.graph_id + ":" + spec.nf_id + ":" + std::to_string(p);
      auto mark = env_.marks->allocate(owner);
      if (!mark) {
        rollback();
        return mark.status();
      }
      dep.mark_owners.push_back(owner);
      dep.marks.push_back(mark.value());
      deployed.ports.back().mark = mark.value();
      Status bind = shared->adaptation->bind(dep.ctx, p, mark.value());
      if (!bind.is_ok()) {
        rollback();
        return bind;
      }
      shared->routes[mark.value()] = {&lsi, port.value()};

      // Switch -> NNF: tag every frame with this port's mark, then one
      // hop for the whole vector: the adaptation layer demultiplexes the
      // burst in one pass.
      auto instance = shared->instance;
      Shared* raw = shared.get();
      const nnf::Mark mark_value = mark.value();
      (void)lsi.set_port_burst_peer(
          port.value(),
          [instance, raw, mark_value](packet::PacketBurst&& burst) {
            for (packet::PacketBuffer& frame : burst) {
              packet::set_vlan(frame, mark_value);
            }
            instance->inject_custom_burst(
                std::move(burst),
                [raw](sim::SimTime now, packet::PacketBurst&& held) {
                  raw->adaptation->receive_burst(now, std::move(held));
                });
          });
    } else {
      // Dedicated attachment per port, like any VNF: a classified burst
      // stays together, one hop for the whole vector.
      auto instance = shared->instance;
      const nnf::ContextId ctx = dep.ctx;
      (void)lsi.set_port_burst_peer(
          port.value(), [instance, ctx, p](packet::PacketBurst&& burst) {
            instance->inject_burst(ctx, p, std::move(burst));
          });
    }
  }

  if (!desc.single_interface) {
    std::vector<nfswitch::PortId> port_map = dep.lsi_ports;
    nfswitch::Lsi* lsi_ptr = &lsi;
    shared->instance->set_burst_egress(
        dep.ctx, [lsi_ptr, port_map](nnf::NfPortIndex out_port,
                                     packet::PacketBurst&& burst) {
          if (out_port < port_map.size()) {
            lsi_ptr->receive_burst(port_map[out_port], std::move(burst));
          }
        });
  }

  shared->active_contexts += 1;
  env_.catalog->status(spec.functional_type).graphs.insert(spec.graph_id);
  deployments_[key] = std::move(dep);
  NNFV_LOG(kInfo, "compute")
      << "native: graph " << spec.graph_id << " uses NNF '"
      << spec.functional_type << "' context " << deployed.context
      << (reused ? " (shared instance)" : " (new instance)");
  return deployed;
}

Status NativeDriver::update(const DeployedNf& deployed,
                            const nnf::NfConfig& config) {
  std::lock_guard<std::recursive_mutex> lock(env_.runtime->nf_lock);
  auto it = deployments_.find(
      deployment_key(deployed.graph_id, deployed.nf_id));
  if (it == deployments_.end()) {
    return util::not_found("native deployment " + deployed.graph_id + "/" +
                           deployed.nf_id);
  }
  Deployment& dep = it->second;
  return dep.shared->plugin->update(dep.shared->instance->function(),
                                    dep.ctx, config);
}

util::Result<json::Value> NativeDriver::nf_stats(
    const DeployedNf& deployed) const {
  std::lock_guard<std::recursive_mutex> lock(env_.runtime->nf_lock);
  auto it = deployments_.find(
      deployment_key(deployed.graph_id, deployed.nf_id));
  if (it == deployments_.end()) {
    return util::not_found("native deployment " + deployed.graph_id + "/" +
                           deployed.nf_id);
  }
  const Deployment& dep = it->second;
  return dep.shared->instance->function().describe_stats(dep.ctx);
}

Status NativeDriver::undeploy(const DeployedNf& deployed) {
  std::lock_guard<std::recursive_mutex> lock(env_.runtime->nf_lock);
  const std::string key =
      deployment_key(deployed.graph_id, deployed.nf_id);
  auto it = deployments_.find(key);
  if (it == deployments_.end()) {
    return util::not_found("native deployment " + key);
  }
  Deployment& dep = it->second;
  std::shared_ptr<Shared> shared = dep.shared;

  for (nfswitch::PortId port : dep.lsi_ports) {
    (void)dep.lsi->remove_port(port);
  }
  if (shared->adaptation != nullptr) {
    shared->adaptation->unbind_context(dep.ctx);
    for (nnf::Mark mark : dep.marks) shared->routes.erase(mark);
  }
  for (const std::string& owner : dep.mark_owners) {
    (void)env_.marks->release(owner);
  }
  shared->instance->clear_egress(dep.ctx);
  if (dep.ctx != nnf::kDefaultContext) {
    (void)shared->instance->function().remove_context(dep.ctx);
  }
  env_.ram->release(dep.owned_ram);
  shared->active_contexts -= 1;

  // Was this the graph's last use of the type? Update catalog status.
  const std::string graph_id = deployed.graph_id;
  const std::string type = dep.functional_type;
  deployments_.erase(it);
  bool graph_still_uses_type = false;
  for (const auto& [other_key, other] : deployments_) {
    if (other.functional_type == type &&
        other_key.substr(0, other_key.find('/')) == graph_id) {
      graph_still_uses_type = true;
      break;
    }
  }
  if (!graph_still_uses_type) {
    env_.catalog->status(type).graphs.erase(graph_id);
  }

  if (shared->active_contexts == 0) {
    destroy_instance(type, shared);
  }
  return Status::ok();
}

void NativeDriver::destroy_instance(const std::string& functional_type,
                                    const std::shared_ptr<Shared>& shared) {
  (void)shared->plugin->on_stop(shared->instance->function());
  (void)shared->instance->destroy();
  (void)env_.netns->destroy(shared->ns_name);
  env_.ram->release(shared->base_ram);
  auto& list = running_[functional_type];
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (*it == shared) {
      list.erase(it);
      break;
    }
  }
  auto& status = env_.catalog->status(functional_type);
  if (status.running_instances > 0) status.running_instances -= 1;
  NNFV_LOG(kInfo, "compute") << "native: stopped NNF '" << functional_type
                             << "' (namespace " << shared->ns_name << ")";
}

std::size_t NativeDriver::running_instances(
    const std::string& functional_type) const {
  auto it = running_.find(functional_type);
  return it == running_.end() ? 0 : it->second.size();
}

std::size_t NativeDriver::total_instances() const {
  std::size_t total = 0;
  for (const auto& [type, list] : running_) total += list.size();
  return total;
}

}  // namespace nnfv::compute
