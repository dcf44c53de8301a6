#include "nffg/nffg_json.hpp"

#include <cmath>

#include "util/strings.hpp"

namespace nnfv::nffg {

using util::invalid_argument;
using util::Result;

namespace {

Result<std::uint64_t> require_uint(const json::Value& obj,
                                   std::string_view key,
                                   std::uint64_t max_value) {
  const json::Value* v = obj.get(key);
  if (v == nullptr || !v->is_number()) {
    return invalid_argument("missing numeric field '" + std::string(key) +
                            "'");
  }
  const double d = v->as_number();
  if (d < 0 || d > static_cast<double>(max_value) || d != std::floor(d)) {
    return invalid_argument("field '" + std::string(key) + "' out of range");
  }
  return static_cast<std::uint64_t>(d);
}

Result<std::string> require_string(const json::Value& obj,
                                   std::string_view key) {
  const json::Value* v = obj.get(key);
  if (v == nullptr || !v->is_string()) {
    return invalid_argument("missing string field '" + std::string(key) +
                            "'");
  }
  return v->as_string();
}

Result<NfNode> parse_nf(const json::Value& v) {
  if (!v.is_object()) return invalid_argument("VNF entry must be an object");
  NfNode nf;
  auto id = require_string(v, "id");
  if (!id) return id.status();
  nf.id = id.value();
  auto type = require_string(v, "functional_type");
  if (!type) return type.status();
  nf.functional_type = type.value();
  if (v.get("ports") != nullptr) {
    auto ports = require_uint(v, "ports", 64);
    if (!ports) return ports.status();
    nf.num_ports = static_cast<std::uint32_t>(ports.value());
  }
  if (const json::Value* backend = v.get("backend"); backend != nullptr) {
    if (!backend->is_string()) {
      return invalid_argument("VNF 'backend' must be a string");
    }
    auto kind = virt::backend_from_name(backend->as_string());
    if (!kind.has_value()) {
      return invalid_argument("unknown backend '" + backend->as_string() +
                              "'");
    }
    nf.backend_hint = kind;
  }
  if (const json::Value* config = v.get("config"); config != nullptr) {
    if (!config->is_object()) {
      return invalid_argument("VNF 'config' must be an object");
    }
    for (const auto& [key, value] : config->as_object()) {
      if (!value.is_string()) {
        return invalid_argument("config value for '" + key +
                                "' must be a string");
      }
      nf.config[key] = value.as_string();
    }
  }
  return nf;
}

Result<Endpoint> parse_endpoint(const json::Value& v) {
  if (!v.is_object()) {
    return invalid_argument("end-point entry must be an object");
  }
  Endpoint ep;
  auto id = require_string(v, "id");
  if (!id) return id.status();
  ep.id = id.value();
  auto iface = require_string(v, "interface");
  if (!iface) return iface.status();
  ep.interface = iface.value();
  if (v.get("vlan") != nullptr) {
    auto vlan = require_uint(v, "vlan", 4094);
    if (!vlan) return vlan.status();
    ep.vlan = static_cast<std::uint16_t>(vlan.value());
  }
  return ep;
}

Result<Rule> parse_rule(const json::Value& v) {
  if (!v.is_object()) {
    return invalid_argument("flow-rule entry must be an object");
  }
  Rule rule;
  auto id = require_string(v, "id");
  if (!id) return id.status();
  rule.id = id.value();
  if (v.get("priority") != nullptr) {
    auto prio = require_uint(v, "priority", 65535);
    if (!prio) return prio.status();
    rule.priority = static_cast<std::uint16_t>(prio.value());
  }

  const json::Value* match = v.get("match");
  if (match == nullptr || !match->is_object()) {
    return invalid_argument("flow-rule '" + rule.id + "' missing match");
  }
  auto port_in = require_string(*match, "port_in");
  if (!port_in) return port_in.status();
  auto ref = PortRef::parse(port_in.value());
  if (!ref) return ref.status();
  rule.match.port_in = ref.value();

  if (match->get("eth_type") != nullptr) {
    auto et = require_uint(*match, "eth_type", 0xFFFF);
    if (!et) return et.status();
    rule.match.eth_type = static_cast<std::uint16_t>(et.value());
  }
  if (const json::Value* s = match->get("ip_src"); s != nullptr) {
    if (!s->is_string()) return invalid_argument("ip_src must be a string");
    NNFV_RETURN_IF_ERROR(packet::parse_ipv4_prefix(
        s->as_string(), rule.match.ip_src, rule.match.ip_src_prefix));
  }
  if (const json::Value* d = match->get("ip_dst"); d != nullptr) {
    if (!d->is_string()) return invalid_argument("ip_dst must be a string");
    NNFV_RETURN_IF_ERROR(packet::parse_ipv4_prefix(
        d->as_string(), rule.match.ip_dst, rule.match.ip_dst_prefix));
  }
  if (match->get("ip_proto") != nullptr) {
    auto proto = require_uint(*match, "ip_proto", 255);
    if (!proto) return proto.status();
    rule.match.ip_proto = static_cast<std::uint8_t>(proto.value());
  }
  if (match->get("tp_src") != nullptr) {
    auto p = require_uint(*match, "tp_src", 65535);
    if (!p) return p.status();
    rule.match.tp_src = static_cast<std::uint16_t>(p.value());
  }
  if (match->get("tp_dst") != nullptr) {
    auto p = require_uint(*match, "tp_dst", 65535);
    if (!p) return p.status();
    rule.match.tp_dst = static_cast<std::uint16_t>(p.value());
  }

  const json::Value* action = v.get("action");
  if (action == nullptr || !action->is_object()) {
    return invalid_argument("flow-rule '" + rule.id + "' missing action");
  }
  auto output = require_string(*action, "output");
  if (!output) return output.status();
  auto out_ref = PortRef::parse(output.value());
  if (!out_ref) return out_ref.status();
  rule.output = out_ref.value();
  return rule;
}

}  // namespace

Result<NfFg> from_json(const json::Value& doc) {
  const json::Value* fg = doc.get("forwarding-graph");
  if (fg == nullptr || !fg->is_object()) {
    return invalid_argument("document must contain 'forwarding-graph'");
  }
  NfFg graph;
  auto id = require_string(*fg, "id");
  if (!id) return id.status();
  graph.id = id.value();
  graph.name = fg->get_string("name");

  if (const json::Value* vnfs = fg->get("VNFs"); vnfs != nullptr) {
    if (!vnfs->is_array()) return invalid_argument("'VNFs' must be an array");
    for (const json::Value& v : vnfs->as_array()) {
      auto nf = parse_nf(v);
      if (!nf) return nf.status();
      graph.nfs.push_back(std::move(nf.value()));
    }
  }
  if (const json::Value* eps = fg->get("end-points"); eps != nullptr) {
    if (!eps->is_array()) {
      return invalid_argument("'end-points' must be an array");
    }
    for (const json::Value& v : eps->as_array()) {
      auto ep = parse_endpoint(v);
      if (!ep) return ep.status();
      graph.endpoints.push_back(std::move(ep.value()));
    }
  }
  if (const json::Value* rules = fg->get("flow-rules"); rules != nullptr) {
    if (!rules->is_array()) {
      return invalid_argument("'flow-rules' must be an array");
    }
    for (const json::Value& v : rules->as_array()) {
      auto rule = parse_rule(v);
      if (!rule) return rule.status();
      graph.rules.push_back(std::move(rule.value()));
    }
  }
  return graph;
}

Result<NfFg> from_json_text(std::string_view text) {
  auto doc = json::parse(text);
  if (!doc) return doc.status();
  return from_json(doc.value());
}

json::Value to_json(const NfFg& graph) {
  json::Object fg;
  fg["id"] = graph.id;
  if (!graph.name.empty()) fg["name"] = graph.name;

  json::Array vnfs;
  for (const NfNode& nf : graph.nfs) {
    json::Object v;
    v["id"] = nf.id;
    v["functional_type"] = nf.functional_type;
    v["ports"] = static_cast<double>(nf.num_ports);
    if (nf.backend_hint.has_value()) {
      v["backend"] = std::string(virt::backend_name(*nf.backend_hint));
    }
    if (!nf.config.empty()) {
      json::Object config;
      for (const auto& [key, value] : nf.config) config[key] = value;
      v["config"] = std::move(config);
    }
    vnfs.push_back(std::move(v));
  }
  fg["VNFs"] = std::move(vnfs);

  json::Array eps;
  for (const Endpoint& ep : graph.endpoints) {
    json::Object v;
    v["id"] = ep.id;
    v["interface"] = ep.interface;
    if (ep.vlan.has_value()) v["vlan"] = static_cast<double>(*ep.vlan);
    eps.push_back(std::move(v));
  }
  fg["end-points"] = std::move(eps);

  json::Array rules;
  for (const Rule& rule : graph.rules) {
    json::Object v;
    v["id"] = rule.id;
    v["priority"] = static_cast<double>(rule.priority);
    json::Object match;
    match["port_in"] = rule.match.port_in.to_string();
    if (rule.match.eth_type.has_value()) {
      match["eth_type"] = static_cast<double>(*rule.match.eth_type);
    }
    if (rule.match.ip_src.has_value()) {
      match["ip_src"] = rule.match.ip_src->to_string() + "/" +
                        std::to_string(rule.match.ip_src_prefix);
    }
    if (rule.match.ip_dst.has_value()) {
      match["ip_dst"] = rule.match.ip_dst->to_string() + "/" +
                        std::to_string(rule.match.ip_dst_prefix);
    }
    if (rule.match.ip_proto.has_value()) {
      match["ip_proto"] = static_cast<double>(*rule.match.ip_proto);
    }
    if (rule.match.tp_src.has_value()) {
      match["tp_src"] = static_cast<double>(*rule.match.tp_src);
    }
    if (rule.match.tp_dst.has_value()) {
      match["tp_dst"] = static_cast<double>(*rule.match.tp_dst);
    }
    v["match"] = std::move(match);
    json::Object action;
    action["output"] = rule.output.to_string();
    v["action"] = std::move(action);
    rules.push_back(std::move(v));
  }
  fg["flow-rules"] = std::move(rules);

  json::Object doc;
  doc["forwarding-graph"] = std::move(fg);
  return doc;
}

}  // namespace nnfv::nffg
