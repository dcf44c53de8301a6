#include "switch/lsi.hpp"

#include "util/logging.hpp"

namespace nnfv::nfswitch {

Lsi::Lsi(LsiId id, std::string name) : id_(id), name_(std::move(name)) {}

util::Result<PortId> Lsi::add_port(const std::string& name) {
  for (const auto& [pid, port] : ports_) {
    if (port.name == name) {
      return util::already_exists("port '" + name + "' on LSI " + name_);
    }
  }
  const PortId pid = next_port_++;
  ports_[pid] = Port{name, nullptr, {}};
  return pid;
}

util::Status Lsi::remove_port(PortId port) {
  if (ports_.erase(port) == 0) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  return util::Status::ok();
}

util::Status Lsi::set_port_burst_peer(PortId port, BurstPeer peer) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  it->second.peer = std::move(peer);
  return util::Status::ok();
}

util::Status Lsi::set_port_peer(PortId port, PortPeer peer) {
  return set_port_burst_peer(
      port, [peer = std::move(peer)](packet::PacketBurst&& burst) {
        for (packet::PacketBuffer& frame : burst) peer(std::move(frame));
      });
}

bool Lsi::has_port(PortId port) const { return ports_.contains(port); }

util::Result<PortId> Lsi::port_by_name(const std::string& name) const {
  for (const auto& [pid, port] : ports_) {
    if (port.name == name) return pid;
  }
  return util::not_found("port '" + name + "' on LSI " + name_);
}

std::vector<PortId> Lsi::ports() const {
  std::vector<PortId> out;
  out.reserve(ports_.size());
  for (const auto& [pid, port] : ports_) out.push_back(pid);
  return out;
}

const PortStats* Lsi::port_stats(PortId port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : &it->second.stats;
}

void Lsi::receive(PortId port, packet::PacketBuffer&& frame) {
  // Burst-of-1 over the one packet-ingress contract: classification,
  // replication and egress grouping live in receive_burst only.
  receive_burst(port, packet::burst_of(std::move(frame)));
}

void Lsi::receive_burst(PortId port, packet::PacketBurst&& burst) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;  // burst on a deleted port: drop
  it->second.stats.rx_packets += burst.size();
  processed_ += burst.size();

  // Survivors grouped per egress port, same-port order preserved.
  packet::BurstGroups<PortId> out(std::move(burst));
  while (packet::PacketBuffer* frame = out.next()) {
    auto fields = packet::extract_flow_fields(frame->data());
    if (!fields) {
      NNFV_LOG(kDebug, "lsi") << name_ << ": unparseable frame dropped";
      continue;
    }
    FlowContext ctx{port, fields.value()};
    FlowEntry* entry =
        table_.lookup_key(FlowKeyView::from_context(ctx), frame->size());
    if (entry == nullptr) {
      if (controller_ != nullptr) {
        controller_->on_packet_in(*this, port, *frame);
      }
      continue;
    }
    ActionOutcome outcome = apply_actions(entry->actions, *frame);
    if (outcome.to_controller && controller_ != nullptr) {
      controller_->on_packet_in(*this, port, *frame);
    }
    if (outcome.dropped) continue;
    // Replicas are clones; the last output takes the frame itself.
    std::size_t left = outcome.outputs.size();
    for (PortId egress : outcome.outputs) {
      if (--left == 0) {
        out.add(egress, std::move(*frame));
      } else {
        out.add(egress, frame->clone());
      }
    }
  }
  out.flush([this](PortId egress, packet::PacketBurst&& group) {
    transmit_burst(egress, std::move(group));
  });
}

void Lsi::transmit_burst(PortId port, packet::PacketBurst&& burst) {
  if (burst.empty()) return;
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  Port& p = it->second;
  p.stats.tx_packets += burst.size();
  if (!p.peer) {
    p.stats.tx_no_peer += burst.size();
    return;
  }
  p.peer(std::move(burst));
}

}  // namespace nnfv::nfswitch
