// Protocol header codecs: Ethernet (+802.1Q), IPv4, UDP, TCP, ICMP, ESP.
//
// Parsers take spans and validate length; serializers write network byte
// order. These are the wire formats the LSIs match on and the NFs rewrite.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/status.hpp"

namespace nnfv::packet {

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

struct MacAddress {
  std::array<std::uint8_t, 6> bytes{};

  bool operator==(const MacAddress&) const = default;
  auto operator<=>(const MacAddress&) const = default;

  [[nodiscard]] bool is_broadcast() const;
  [[nodiscard]] bool is_multicast() const;
  [[nodiscard]] std::string to_string() const;  // "aa:bb:cc:dd:ee:ff"

  static std::optional<MacAddress> parse(std::string_view text);
  /// Deterministic locally-administered unicast MAC from an integer id.
  static MacAddress from_id(std::uint32_t id);
  static MacAddress broadcast();
};

struct Ipv4Address {
  std::uint32_t value = 0;  // host byte order

  bool operator==(const Ipv4Address&) const = default;
  auto operator<=>(const Ipv4Address&) const = default;

  [[nodiscard]] std::string to_string() const;  // "10.0.0.1"
  static std::optional<Ipv4Address> parse(std::string_view text);
};

/// Parses an IPv4 prefix, "10.0.0.0/8" or a bare "10.0.0.1" (prefix 32),
/// into `addr` and `prefix`; both are left untouched on error.
util::Status parse_ipv4_prefix(std::string_view text,
                               std::optional<Ipv4Address>& addr,
                               std::uint8_t& prefix);

// ---------------------------------------------------------------------------
// Ethernet / 802.1Q
// ---------------------------------------------------------------------------

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::uint16_t kEtherTypeVlan = 0x8100;

inline constexpr std::size_t kEthernetHeaderSize = 14;
inline constexpr std::size_t kVlanTagSize = 4;

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ether_type = 0;       ///< type after any VLAN tag
  std::optional<std::uint16_t> vlan;  ///< VID when 802.1Q-tagged (12 bits)
  std::uint8_t pcp = 0;               ///< VLAN priority bits

  /// Header length on the wire (14 or 18 bytes).
  [[nodiscard]] std::size_t wire_size() const {
    return kEthernetHeaderSize + (vlan.has_value() ? kVlanTagSize : 0);
  }
};

util::Result<EthernetHeader> parse_ethernet(std::span<const std::uint8_t> data);
/// Serializes into `out`, which must be at least hdr.wire_size() bytes.
void write_ethernet(const EthernetHeader& hdr, std::span<std::uint8_t> out);

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;
inline constexpr std::uint8_t kIpProtoEsp = 50;

inline constexpr std::size_t kIpv4MinHeaderSize = 20;

struct Ipv4Header {
  std::uint8_t ihl = 5;  ///< header length in 32-bit words (options unused)
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  ///< header + payload, bytes
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  std::uint16_t checksum = 0;  ///< as parsed; recomputed on write
  Ipv4Address src;
  Ipv4Address dst;

  [[nodiscard]] std::size_t header_size() const {
    return static_cast<std::size_t>(ihl) * 4;
  }
};

util::Result<Ipv4Header> parse_ipv4(std::span<const std::uint8_t> data);
/// Serializes with a freshly computed header checksum. `out` must hold
/// hdr.header_size() bytes.
void write_ipv4(const Ipv4Header& hdr, std::span<std::uint8_t> out);

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

inline constexpr std::size_t kUdpHeaderSize = 8;

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  ///< header + payload
  std::uint16_t checksum = 0;
};

util::Result<UdpHeader> parse_udp(std::span<const std::uint8_t> data);
void write_udp(const UdpHeader& hdr, std::span<std::uint8_t> out);

// ---------------------------------------------------------------------------
// TCP (header only; enough for NAT/firewall 5-tuple handling)
// ---------------------------------------------------------------------------

inline constexpr std::size_t kTcpMinHeaderSize = 20;

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  ///< words
  std::uint8_t flags = 0;        ///< FIN=0x01 SYN=0x02 RST=0x04 ... as on wire
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;

  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kAck = 0x10;

  [[nodiscard]] std::size_t header_size() const {
    return static_cast<std::size_t>(data_offset) * 4;
  }
};

util::Result<TcpHeader> parse_tcp(std::span<const std::uint8_t> data);
void write_tcp(const TcpHeader& hdr, std::span<std::uint8_t> out);

// ---------------------------------------------------------------------------
// ICMP (echo only)
// ---------------------------------------------------------------------------

inline constexpr std::size_t kIcmpHeaderSize = 8;

struct IcmpHeader {
  std::uint8_t type = 8;  ///< 8=echo request, 0=echo reply
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
};

util::Result<IcmpHeader> parse_icmp(std::span<const std::uint8_t> data);
void write_icmp(const IcmpHeader& hdr, std::span<std::uint8_t> out);

// ---------------------------------------------------------------------------
// ESP (RFC 4303) — header + trailer layout used by the IPsec NF
// ---------------------------------------------------------------------------

inline constexpr std::size_t kEspHeaderSize = 8;  // SPI + sequence

struct EspHeader {
  std::uint32_t spi = 0;
  std::uint32_t sequence = 0;
};

util::Result<EspHeader> parse_esp(std::span<const std::uint8_t> data);
void write_esp(const EspHeader& hdr, std::span<std::uint8_t> out);

}  // namespace nnfv::packet
