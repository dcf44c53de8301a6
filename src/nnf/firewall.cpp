#include "nnf/firewall.hpp"

#include "util/strings.hpp"

namespace nnfv::nnf {

namespace {

bool prefix_match(packet::Ipv4Address value, packet::Ipv4Address pattern,
                  std::uint8_t prefix) {
  if (prefix == 0) return true;
  if (prefix > 32) prefix = 32;
  const std::uint32_t mask =
      prefix == 32 ? 0xFFFFFFFFu : ~((1u << (32 - prefix)) - 1u);
  return (value.value & mask) == (pattern.value & mask);
}

/// Parses "10.0.0.0/8" or "192.168.1.1" or "any".
util::Status parse_cidr(const std::string& text,
                        std::optional<packet::Ipv4Address>& addr,
                        std::uint8_t& prefix) {
  if (text == "any" || text == "*") {
    addr = std::nullopt;
    return util::Status::ok();
  }
  return packet::parse_ipv4_prefix(text, addr, prefix);
}

}  // namespace

bool FilterRule::matches(NfPortIndex in_port_idx,
                         const packet::FiveTuple& tuple) const {
  if (in_port.has_value() && *in_port != in_port_idx) return false;
  if (src.has_value() && !prefix_match(tuple.src_ip, *src, src_prefix)) {
    return false;
  }
  if (dst.has_value() && !prefix_match(tuple.dst_ip, *dst, dst_prefix)) {
    return false;
  }
  if (protocol.has_value() && *protocol != tuple.protocol) return false;
  if (dport_lo != 0 || dport_hi != 65535) {
    if (tuple.dst_port < dport_lo || tuple.dst_port > dport_hi) return false;
  }
  return true;
}

util::Result<FilterRule> parse_filter_rule(const std::string& text) {
  const auto parts = util::split(text, ',');
  if (parts.size() < 5) {
    return util::invalid_argument(
        "rule needs <verdict>,<src>,<dst>,<proto>,<dports>: '" + text + "'");
  }
  FilterRule rule;
  if (parts[0] == "accept") {
    rule.verdict = FilterVerdict::kAccept;
  } else if (parts[0] == "drop") {
    rule.verdict = FilterVerdict::kDrop;
  } else {
    return util::invalid_argument("bad verdict '" + parts[0] + "'");
  }
  NNFV_RETURN_IF_ERROR(parse_cidr(parts[1], rule.src, rule.src_prefix));
  NNFV_RETURN_IF_ERROR(parse_cidr(parts[2], rule.dst, rule.dst_prefix));
  if (parts[3] == "any" || parts[3] == "*") {
    rule.protocol = std::nullopt;
  } else if (parts[3] == "tcp") {
    rule.protocol = packet::kIpProtoTcp;
  } else if (parts[3] == "udp") {
    rule.protocol = packet::kIpProtoUdp;
  } else if (parts[3] == "icmp") {
    rule.protocol = packet::kIpProtoIcmp;
  } else if (parts[3] == "esp") {
    rule.protocol = packet::kIpProtoEsp;
  } else {
    std::uint64_t proto = 0;
    if (!util::parse_u64(parts[3], proto) || proto > 255) {
      return util::invalid_argument("bad protocol '" + parts[3] + "'");
    }
    rule.protocol = static_cast<std::uint8_t>(proto);
  }
  if (parts[4] != "any" && parts[4] != "*") {
    const auto dash = parts[4].find('-');
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (dash == std::string::npos) {
      if (!util::parse_u64(parts[4], lo) || lo > 65535) {
        return util::invalid_argument("bad port '" + parts[4] + "'");
      }
      hi = lo;
    } else {
      if (!util::parse_u64(parts[4].substr(0, dash), lo) ||
          !util::parse_u64(parts[4].substr(dash + 1), hi) || lo > 65535 ||
          hi > 65535 || lo > hi) {
        return util::invalid_argument("bad port range '" + parts[4] + "'");
      }
    }
    rule.dport_lo = static_cast<std::uint16_t>(lo);
    rule.dport_hi = static_cast<std::uint16_t>(hi);
  }
  for (std::size_t i = 5; i < parts.size(); ++i) {
    if (parts[i] == "in=0") {
      rule.in_port = 0;
    } else if (parts[i] == "in=1") {
      rule.in_port = 1;
    } else {
      return util::invalid_argument("bad rule option '" + parts[i] + "'");
    }
  }
  return rule;
}

util::Status Firewall::configure(ContextId ctx, const NfConfig& config) {
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  ContextState& state = state_[ctx];
  for (const auto& [key, value] : config) {
    if (key == "policy") {
      if (value == "accept") {
        state.policy = FilterVerdict::kAccept;
      } else if (value == "drop") {
        state.policy = FilterVerdict::kDrop;
      } else {
        return util::invalid_argument("firewall: bad policy '" + value + "'");
      }
    } else if (util::starts_with(key, "rule.")) {
      auto rule = parse_filter_rule(value);
      if (!rule) return rule.status();
      state.rules.push_back(rule.value());
    } else {
      return util::invalid_argument("firewall: unknown config key '" + key +
                                    "'");
    }
  }
  return util::Status::ok();
}

std::vector<NfOutput> Firewall::process(ContextId ctx, NfPortIndex in_port,
                                        sim::SimTime now,
                                        packet::PacketBuffer&& frame) {
  return process_burst(ctx, in_port, now, packet::burst_of(std::move(frame)));
}

std::vector<NfOutput> Firewall::process_burst(ContextId ctx,
                                              NfPortIndex in_port,
                                              sim::SimTime /*now*/,
                                              packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  out.reserve(burst.size());
  for (packet::PacketBuffer& frame : burst) {
    filter(ctx, in_port, std::move(frame), out);
  }
  burst.clear();
  return out;
}

void Firewall::filter(ContextId ctx, NfPortIndex in_port,
                      packet::PacketBuffer&& frame,
                      std::vector<NfOutput>& out) {
  ++counters_.in_packets;
  if (!has_context(ctx) || in_port >= 2) {
    ++counters_.errors;
    return;
  }
  auto eth = packet::parse_ethernet(frame.data());
  if (!eth) {
    ++counters_.errors;
    return;
  }
  FilterVerdict verdict;
  const ContextState& state = state_[ctx];
  if (eth->ether_type != packet::kEtherTypeIpv4) {
    // Non-IP (e.g. ARP) always passes, like iptables.
    verdict = FilterVerdict::kAccept;
  } else {
    auto tuple =
        packet::extract_five_tuple(frame.data().subspan(eth->wire_size()));
    if (!tuple) {
      ++counters_.dropped;
      return;  // malformed IP: drop
    }
    verdict = state.policy;
    for (const FilterRule& rule : state.rules) {
      if (rule.matches(in_port, tuple.value())) {
        verdict = rule.verdict;
        break;
      }
    }
  }
  if (verdict == FilterVerdict::kDrop) {
    ++counters_.dropped;
    return;
  }
  out.push_back(NfOutput{in_port == 0 ? 1u : 0u, std::move(frame)});
  ++counters_.out_packets;
}

util::Status Firewall::remove_context(ContextId ctx) {
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  state_.erase(ctx);
  return util::Status::ok();
}

util::Status Firewall::append_rule(ContextId ctx, FilterRule rule) {
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  state_[ctx].rules.push_back(rule);
  return util::Status::ok();
}

void Firewall::set_policy(ContextId ctx, FilterVerdict verdict) {
  state_[ctx].policy = verdict;
}

std::size_t Firewall::rule_count(ContextId ctx) const {
  auto it = state_.find(ctx);
  return it == state_.end() ? 0 : it->second.rules.size();
}

}  // namespace nnfv::nnf
