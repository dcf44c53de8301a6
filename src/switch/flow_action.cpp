#include "switch/flow_action.hpp"

#include "packet/builder.hpp"

namespace nnfv::nfswitch {

std::string FlowAction::to_string() const {
  switch (type) {
    case Type::kOutput:
      return "output:" + std::to_string(port);
    case Type::kPushVlan:
      return "push_vlan:" + std::to_string(vlan);
    case Type::kPopVlan:
      return "pop_vlan";
    case Type::kSetVlan:
      return "set_vlan:" + std::to_string(vlan);
    case Type::kSetEthSrc:
      return "set_eth_src:" + mac.to_string();
    case Type::kSetEthDst:
      return "set_eth_dst:" + mac.to_string();
    case Type::kDrop:
      return "drop";
    case Type::kController:
      return "controller";
  }
  return "?";
}

ActionOutcome apply_actions(const std::vector<FlowAction>& actions,
                            packet::PacketBuffer& frame) {
  ActionOutcome outcome;
  // Replicated frames arrive as refcounted clones; header rewrites below
  // must not bleed into sibling replicas.
  frame.unshare();
  for (const FlowAction& action : actions) {
    switch (action.type) {
      case FlowAction::Type::kOutput:
        break;
      case FlowAction::Type::kPushVlan:
      case FlowAction::Type::kSetVlan:
        packet::set_vlan(frame, action.vlan);
        break;
      case FlowAction::Type::kPopVlan:
        packet::set_vlan(frame, std::nullopt);
        break;
      case FlowAction::Type::kSetEthSrc: {
        auto eth = packet::parse_ethernet(frame.data());
        if (eth) {
          packet::EthernetHeader hdr = eth.value();
          hdr.src = action.mac;
          packet::write_ethernet(hdr,
                                 frame.data().subspan(0, hdr.wire_size()));
        }
        break;
      }
      case FlowAction::Type::kSetEthDst: {
        auto eth = packet::parse_ethernet(frame.data());
        if (eth) {
          packet::EthernetHeader hdr = eth.value();
          hdr.dst = action.mac;
          packet::write_ethernet(hdr,
                                 frame.data().subspan(0, hdr.wire_size()));
        }
        break;
      }
      case FlowAction::Type::kDrop:
        outcome.dropped = true;
        return outcome;
      case FlowAction::Type::kController:
        outcome.to_controller = true;
        break;
    }
  }
  outcome.outputs =
      OutputPorts(actions.data(), actions.data() + actions.size());
  return outcome;
}

}  // namespace nnfv::nfswitch
