#include "packet/headers.hpp"

#include <algorithm>
#include <cstdio>

#include "packet/checksum.hpp"
#include "util/byteorder.hpp"
#include "util/strings.hpp"

namespace nnfv::packet {

using util::invalid_argument;
using util::load_be16;
using util::load_be32;
using util::Result;
using util::store_be16;
using util::store_be32;

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

bool MacAddress::is_broadcast() const {
  for (std::uint8_t b : bytes) {
    if (b != 0xFF) return false;
  }
  return true;
}

bool MacAddress::is_multicast() const { return (bytes[0] & 0x01) != 0; }

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0],
                bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]);
  return buf;
}

std::optional<MacAddress> MacAddress::parse(std::string_view text) {
  MacAddress mac;
  const auto parts = util::split(text, ':');
  if (parts.size() != 6) return std::nullopt;
  for (std::size_t i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> byte;
    if (parts[i].size() != 2 || !util::hex_decode(parts[i], byte)) {
      return std::nullopt;
    }
    mac.bytes[i] = byte[0];
  }
  return mac;
}

MacAddress MacAddress::from_id(std::uint32_t id) {
  MacAddress mac;
  mac.bytes[0] = 0x02;  // locally administered, unicast
  mac.bytes[1] = 0x00;
  mac.bytes[2] = static_cast<std::uint8_t>(id >> 24);
  mac.bytes[3] = static_cast<std::uint8_t>(id >> 16);
  mac.bytes[4] = static_cast<std::uint8_t>(id >> 8);
  mac.bytes[5] = static_cast<std::uint8_t>(id);
  return mac;
}

MacAddress MacAddress::broadcast() {
  MacAddress mac;
  mac.bytes.fill(0xFF);
  return mac;
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xFF,
                (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF);
  return buf;
}

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const auto& part : parts) {
    std::uint64_t octet = 0;
    if (part.empty() || part.size() > 3 || !util::parse_u64(part, octet) ||
        octet > 255) {
      return std::nullopt;
    }
    value = (value << 8) | static_cast<std::uint32_t>(octet);
  }
  return Ipv4Address{value};
}

util::Status parse_ipv4_prefix(std::string_view text,
                               std::optional<Ipv4Address>& addr,
                               std::uint8_t& prefix) {
  const auto slash = text.find('/');
  auto parsed = Ipv4Address::parse(text.substr(0, slash));
  if (!parsed.has_value()) {
    return invalid_argument("bad IPv4 address '" + std::string(text) + "'");
  }
  std::uint64_t len = 32;
  if (slash != std::string_view::npos &&
      (!util::parse_u64(text.substr(slash + 1), len) || len > 32)) {
    return invalid_argument("bad prefix in '" + std::string(text) + "'");
  }
  addr = *parsed;
  prefix = static_cast<std::uint8_t>(len);
  return util::Status::ok();
}

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

Result<EthernetHeader> parse_ethernet(std::span<const std::uint8_t> data) {
  if (data.size() < kEthernetHeaderSize) {
    return invalid_argument("ethernet frame too short");
  }
  EthernetHeader hdr;
  std::copy_n(data.data(), 6, hdr.dst.bytes.begin());
  std::copy_n(data.data() + 6, 6, hdr.src.bytes.begin());
  std::uint16_t type = load_be16(data.data() + 12);
  if (type == kEtherTypeVlan) {
    if (data.size() < kEthernetHeaderSize + kVlanTagSize) {
      return invalid_argument("truncated 802.1Q tag");
    }
    const std::uint16_t tci = load_be16(data.data() + 14);
    hdr.vlan = static_cast<std::uint16_t>(tci & 0x0FFF);
    hdr.pcp = static_cast<std::uint8_t>(tci >> 13);
    type = load_be16(data.data() + 16);
  }
  hdr.ether_type = type;
  return hdr;
}

void write_ethernet(const EthernetHeader& hdr, std::span<std::uint8_t> out) {
  std::copy(hdr.dst.bytes.begin(), hdr.dst.bytes.end(), out.begin());
  std::copy(hdr.src.bytes.begin(), hdr.src.bytes.end(), out.begin() + 6);
  if (hdr.vlan.has_value()) {
    store_be16(out.data() + 12, kEtherTypeVlan);
    const std::uint16_t tci = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(hdr.pcp) << 13) | (*hdr.vlan & 0x0FFF));
    store_be16(out.data() + 14, tci);
    store_be16(out.data() + 16, hdr.ether_type);
  } else {
    store_be16(out.data() + 12, hdr.ether_type);
  }
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

Result<Ipv4Header> parse_ipv4(std::span<const std::uint8_t> data) {
  if (data.size() < kIpv4MinHeaderSize) {
    return invalid_argument("IPv4 header too short");
  }
  const std::uint8_t version = data[0] >> 4;
  if (version != 4) return invalid_argument("not an IPv4 packet");
  Ipv4Header hdr;
  hdr.ihl = data[0] & 0x0F;
  if (hdr.ihl < 5 || hdr.header_size() > data.size()) {
    return invalid_argument("bad IPv4 IHL");
  }
  hdr.dscp = data[1] >> 2;
  hdr.total_length = load_be16(data.data() + 2);
  if (hdr.total_length < hdr.header_size()) {
    return invalid_argument("IPv4 total length smaller than header");
  }
  hdr.identification = load_be16(data.data() + 4);
  hdr.dont_fragment = (data[6] & 0x40) != 0;
  hdr.ttl = data[8];
  hdr.protocol = data[9];
  hdr.checksum = load_be16(data.data() + 10);
  hdr.src.value = load_be32(data.data() + 12);
  hdr.dst.value = load_be32(data.data() + 16);
  return hdr;
}

void write_ipv4(const Ipv4Header& hdr, std::span<std::uint8_t> out) {
  out[0] = static_cast<std::uint8_t>(0x40 | (hdr.ihl & 0x0F));
  out[1] = static_cast<std::uint8_t>(hdr.dscp << 2);
  store_be16(out.data() + 2, hdr.total_length);
  store_be16(out.data() + 4, hdr.identification);
  out[6] = hdr.dont_fragment ? 0x40 : 0x00;
  out[7] = 0;
  out[8] = hdr.ttl;
  out[9] = hdr.protocol;
  store_be16(out.data() + 10, 0);  // checksum placeholder
  store_be32(out.data() + 12, hdr.src.value);
  store_be32(out.data() + 16, hdr.dst.value);
  for (std::size_t i = kIpv4MinHeaderSize; i < hdr.header_size(); ++i) {
    out[i] = 0;  // options unused
  }
  const std::uint16_t sum =
      internet_checksum({out.data(), hdr.header_size()});
  store_be16(out.data() + 10, sum);
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

Result<UdpHeader> parse_udp(std::span<const std::uint8_t> data) {
  if (data.size() < kUdpHeaderSize) {
    return invalid_argument("UDP header too short");
  }
  UdpHeader hdr;
  hdr.src_port = load_be16(data.data());
  hdr.dst_port = load_be16(data.data() + 2);
  hdr.length = load_be16(data.data() + 4);
  hdr.checksum = load_be16(data.data() + 6);
  if (hdr.length < kUdpHeaderSize) {
    return invalid_argument("bad UDP length");
  }
  return hdr;
}

void write_udp(const UdpHeader& hdr, std::span<std::uint8_t> out) {
  store_be16(out.data(), hdr.src_port);
  store_be16(out.data() + 2, hdr.dst_port);
  store_be16(out.data() + 4, hdr.length);
  store_be16(out.data() + 6, hdr.checksum);
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

Result<TcpHeader> parse_tcp(std::span<const std::uint8_t> data) {
  if (data.size() < kTcpMinHeaderSize) {
    return invalid_argument("TCP header too short");
  }
  TcpHeader hdr;
  hdr.src_port = load_be16(data.data());
  hdr.dst_port = load_be16(data.data() + 2);
  hdr.seq = load_be32(data.data() + 4);
  hdr.ack = load_be32(data.data() + 8);
  hdr.data_offset = data[12] >> 4;
  if (hdr.data_offset < 5 || hdr.header_size() > data.size()) {
    return invalid_argument("bad TCP data offset");
  }
  hdr.flags = data[13];
  hdr.window = load_be16(data.data() + 14);
  hdr.checksum = load_be16(data.data() + 16);
  return hdr;
}

void write_tcp(const TcpHeader& hdr, std::span<std::uint8_t> out) {
  store_be16(out.data(), hdr.src_port);
  store_be16(out.data() + 2, hdr.dst_port);
  store_be32(out.data() + 4, hdr.seq);
  store_be32(out.data() + 8, hdr.ack);
  out[12] = static_cast<std::uint8_t>(hdr.data_offset << 4);
  out[13] = hdr.flags;
  store_be16(out.data() + 14, hdr.window);
  store_be16(out.data() + 16, hdr.checksum);
  store_be16(out.data() + 18, 0);  // urgent pointer unused
  for (std::size_t i = kTcpMinHeaderSize; i < hdr.header_size(); ++i) {
    out[i] = 0;  // options zeroed
  }
}

// ---------------------------------------------------------------------------
// ICMP
// ---------------------------------------------------------------------------

Result<IcmpHeader> parse_icmp(std::span<const std::uint8_t> data) {
  if (data.size() < kIcmpHeaderSize) {
    return invalid_argument("ICMP header too short");
  }
  IcmpHeader hdr;
  hdr.type = data[0];
  hdr.code = data[1];
  hdr.checksum = load_be16(data.data() + 2);
  hdr.identifier = load_be16(data.data() + 4);
  hdr.sequence = load_be16(data.data() + 6);
  return hdr;
}

void write_icmp(const IcmpHeader& hdr, std::span<std::uint8_t> out) {
  out[0] = hdr.type;
  out[1] = hdr.code;
  store_be16(out.data() + 2, hdr.checksum);
  store_be16(out.data() + 4, hdr.identifier);
  store_be16(out.data() + 6, hdr.sequence);
}

// ---------------------------------------------------------------------------
// ESP
// ---------------------------------------------------------------------------

Result<EspHeader> parse_esp(std::span<const std::uint8_t> data) {
  if (data.size() < kEspHeaderSize) {
    return invalid_argument("ESP header too short");
  }
  EspHeader hdr;
  hdr.spi = load_be32(data.data());
  hdr.sequence = load_be32(data.data() + 4);
  return hdr;
}

void write_esp(const EspHeader& hdr, std::span<std::uint8_t> out) {
  store_be32(out.data(), hdr.spi);
  store_be32(out.data() + 4, hdr.sequence);
}

}  // namespace nnfv::packet
