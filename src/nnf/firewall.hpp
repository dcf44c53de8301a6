// Stateless packet filter — the "iptables" firewall role of the paper.
//
// A FORWARD-chain model: rules are evaluated in order, first match wins,
// otherwise the default policy applies. Two logical ports (0 = LAN,
// 1 = WAN); accepted traffic crosses to the other port. Per-context rule
// sets give the sharable behaviour (one iptables, per-graph chains).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "nnf/network_function.hpp"
#include "packet/flow_key.hpp"

namespace nnfv::nnf {

enum class FilterVerdict { kAccept, kDrop };

struct FilterRule {
  std::optional<packet::Ipv4Address> src;
  std::uint8_t src_prefix = 32;
  std::optional<packet::Ipv4Address> dst;
  std::uint8_t dst_prefix = 32;
  std::optional<std::uint8_t> protocol;
  /// Inclusive destination port range; {0,65535} = any.
  std::uint16_t dport_lo = 0;
  std::uint16_t dport_hi = 65535;
  /// Restrict to one direction: 0 = LAN->WAN, 1 = WAN->LAN, nullopt = both.
  std::optional<NfPortIndex> in_port;
  FilterVerdict verdict = FilterVerdict::kDrop;

  [[nodiscard]] bool matches(NfPortIndex in_port_idx,
                             const packet::FiveTuple& tuple) const;
};

class Firewall : public NetworkFunction {
 public:
  Firewall() = default;

  [[nodiscard]] std::string_view type() const override { return "firewall"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }

  /// Config keys:
  ///   "policy"  = "accept" | "drop"
  ///   "rule.N"  = "<verdict>,<src|any>,<dst|any>,<proto|any>,<dports|any>[,in=<0|1>]"
  /// e.g. "drop,10.0.0.0/8,any,tcp,22" or "accept,any,192.168.1.7,udp,5000-5010".
  util::Status configure(ContextId ctx, const NfConfig& config) override;

  /// Filters a burst: each frame gets its verdict; accepted frames leave
  /// on the other port, in order.
  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime now,
                                      packet::PacketBurst&& burst) override;

  /// Per-frame edge: a burst-of-1 call to process_burst.
  std::vector<NfOutput> process(ContextId ctx, NfPortIndex in_port,
                                sim::SimTime now,
                                packet::PacketBuffer&& frame) override;

  util::Status remove_context(ContextId ctx) override;

  /// Programmatic rule management (tests, examples).
  util::Status append_rule(ContextId ctx, FilterRule rule);
  void set_policy(ContextId ctx, FilterVerdict verdict);
  [[nodiscard]] std::size_t rule_count(ContextId ctx) const;

  [[nodiscard]] const NfCounters& counters() const { return counters_; }

 private:
  struct ContextState {
    std::vector<FilterRule> rules;
    FilterVerdict policy = FilterVerdict::kAccept;
  };

  /// Appends `frame` to `out` when the context's rules accept it.
  void filter(ContextId ctx, NfPortIndex in_port,
              packet::PacketBuffer&& frame, std::vector<NfOutput>& out);

  std::map<ContextId, ContextState> state_;
  NfCounters counters_;
};

/// Parses the textual rule syntax documented at Firewall::configure.
util::Result<FilterRule> parse_filter_rule(const std::string& text);

}  // namespace nnfv::nnf
