// NetworkFunction: the functional (packet-transforming) core of an NF,
// independent of the execution backend.
//
// The same function logic runs as a native NF, a Docker container or a VM —
// exactly the paper's premise: it is the *wrapping* that differs (cost,
// RAM, image), not the function. Backends therefore wrap one of these
// objects; virt::CostModel supplies the wrapping's timing.
//
// Contexts: a *sharable* NNF serves several service graphs at once by
// keeping "multiple internal paths" (paper §2). Each path is a context id;
// non-sharable functions only accept kDefaultContext.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "packet/buffer.hpp"
#include "sim/time.hpp"
#include "util/atomics.hpp"
#include "util/status.hpp"

namespace nnfv::nnf {

using ContextId = std::uint32_t;
inline constexpr ContextId kDefaultContext = 0;

/// Logical NF port index (0-based). Port meanings are per-function
/// (e.g. NAT: 0 = inside, 1 = outside).
using NfPortIndex = std::uint32_t;

/// Key/value configuration, the "predefined configuration script" contents.
using NfConfig = std::map<std::string, std::string>;

/// A frame emitted by an NF, with the logical port it leaves through.
struct NfOutput {
  NfPortIndex port = 0;
  packet::PacketBuffer frame;
};

class NetworkFunction {
 public:
  virtual ~NetworkFunction() = default;

  /// Functional type name ("bridge", "firewall", "nat", "ipsec").
  [[nodiscard]] virtual std::string_view type() const = 0;

  /// Number of logical ports.
  [[nodiscard]] virtual std::size_t num_ports() const = 0;

  /// Creates an isolated internal path. Context 0 always exists.
  virtual util::Status add_context(ContextId ctx);
  virtual util::Status remove_context(ContextId ctx);
  [[nodiscard]] virtual bool has_context(ContextId ctx) const;

  /// Applies configuration to one context. Unknown keys are rejected so
  /// misspelled configs fail loudly.
  virtual util::Status configure(ContextId ctx, const NfConfig& config) = 0;

  /// Processes one frame arriving on `in_port` of context `ctx` at time
  /// `now` (ns since the node was built; simulated time on a
  /// modelled-timing node); returns zero or more output frames.
  virtual std::vector<NfOutput> process(ContextId ctx, NfPortIndex in_port,
                                        sim::SimTime now,
                                        packet::PacketBuffer&& frame) = 0;

  /// Processes a whole burst arriving on one port — the only entry the
  /// datapath calls. The default shim calls process() per frame, so
  /// single-packet subclasses work unchanged; functions with per-burst
  /// amortisable state override.
  virtual std::vector<NfOutput> process_burst(ContextId ctx,
                                              NfPortIndex in_port,
                                              sim::SimTime now,
                                              packet::PacketBurst&& burst);

  /// Live per-context status counters as JSON, surfaced through the REST
  /// status path (GET /NF-FG/{id}/VNFs/{nf}/stats). The default reports
  /// nothing; functions with operational state (IPsec SA lifecycle, NAT
  /// pools) override.
  [[nodiscard]] virtual json::Value describe_stats(ContextId /*ctx*/) const {
    return json::Object{};
  }

 protected:
  /// Helper for subclasses with simple context sets.
  [[nodiscard]] util::Status require_context(ContextId ctx) const;
  /// Kept sorted ascending; contains kDefaultContext from construction.
  std::vector<ContextId> contexts_{kDefaultContext};
};

/// Per-function packet counters, kept by implementations that need them.
/// Relaxed atomics: datapath workers bump them concurrently (docs §6).
struct NfCounters {
  util::RelaxedCounter in_packets;
  util::RelaxedCounter out_packets;
  util::RelaxedCounter dropped;
  util::RelaxedCounter errors;
};

}  // namespace nnfv::nnf
