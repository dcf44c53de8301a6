#include "exec/priority.hpp"

#include "packet/flow_key.hpp"
#include "packet/headers.hpp"

namespace nnfv::exec {

namespace {

constexpr std::uint16_t kDhcpServerPort = 67;
constexpr std::uint16_t kDhcpClientPort = 68;

bool is_dhcp_port(std::uint16_t port) {
  return port == kDhcpServerPort || port == kDhcpClientPort;
}

/// True when the ESP frame's SPI belongs to an in-flight rekey. `l3` is
/// the frame payload starting at the IPv4 header.
bool esp_is_control(const packet::Ipv4Header& ipv4,
                    std::span<const std::uint8_t> l3) {
  if (ControlSpiRegistry::instance().empty()) return false;
  if (l3.size() < ipv4.header_size()) return false;
  auto esp = packet::parse_esp(l3.subspan(ipv4.header_size()));
  if (!esp) return false;
  return ControlSpiRegistry::instance().contains(esp.value().spi);
}

}  // namespace

ControlSpiRegistry& ControlSpiRegistry::instance() {
  static ControlSpiRegistry* registry = new ControlSpiRegistry();  // leaked
  return *registry;
}

void ControlSpiRegistry::add(std::uint32_t spi) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++spis_[spi];
  count_.fetch_add(1, std::memory_order_relaxed);
}

void ControlSpiRegistry::remove(std::uint32_t spi) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spis_.find(spi);
  if (it == spis_.end()) return;
  if (--it->second == 0) spis_.erase(it);
  count_.fetch_sub(1, std::memory_order_relaxed);
}

bool ControlSpiRegistry::contains(std::uint32_t spi) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spis_.contains(spi);
}

FramePriority classify_priority(std::span<const std::uint8_t> frame) {
  auto decoded = packet::extract_flow_fields(frame);
  if (!decoded) return FramePriority::kBulk;
  const packet::FlowFields& fields = decoded.value();
  if (fields.eth.ether_type == packet::kEtherTypeArp) {
    return FramePriority::kControl;
  }
  if (!fields.ipv4) return FramePriority::kBulk;
  const packet::Ipv4Header& ipv4 = *fields.ipv4;
  if (ipv4.protocol == packet::kIpProtoUdp) {
    if ((fields.l4_src && is_dhcp_port(*fields.l4_src)) ||
        (fields.l4_dst && is_dhcp_port(*fields.l4_dst))) {
      return FramePriority::kControl;
    }
    return FramePriority::kBulk;
  }
  if (ipv4.protocol == packet::kIpProtoEsp) {
    const std::size_t l3_off = fields.eth.wire_size();
    if (frame.size() > l3_off &&
        esp_is_control(ipv4, frame.subspan(l3_off))) {
      return FramePriority::kControl;
    }
  }
  return FramePriority::kBulk;
}

}  // namespace nnfv::exec
