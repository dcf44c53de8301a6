// IPsec ESP endpoint tests: real encrypt/decrypt roundtrips between two
// endpoints, wire-format properties, authentication, anti-replay, and
// multi-tunnel (sharable) contexts.
#include <gtest/gtest.h>

#include "crypto/backend.hpp"
#include "crypto/hmac.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {
namespace {

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

NfConfig initiator_config() {
  return {{"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
          {"spi_out", "1001"},          {"spi_in", "2002"},
          {"enc_key", kEncKey},         {"auth_key", kAuthKey}};
}

NfConfig responder_config() {
  return {{"local_ip", "198.51.100.2"}, {"peer_ip", "198.51.100.1"},
          {"spi_out", "2002"},          {"spi_in", "1001"},
          {"enc_key", kEncKey},         {"auth_key", kAuthKey}};
}

packet::PacketBuffer plaintext_frame(std::size_t payload_size = 200,
                                     std::uint64_t seed = 1) {
  util::Rng rng(seed);
  static std::vector<std::uint8_t> payload;
  payload = rng.bytes(payload_size);
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
  spec.src_port = 5001;
  spec.dst_port = 5001;
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

IpsecEndpoint make_endpoint(const NfConfig& config) {
  IpsecEndpoint endpoint;
  EXPECT_TRUE(endpoint.configure(kDefaultContext, config).is_ok());
  return endpoint;
}

TEST(Ipsec, EncapsulateProducesEspPacket) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  auto outs =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].port, 1u);

  auto eth = packet::parse_ethernet(outs[0].frame.data());
  ASSERT_TRUE(eth.is_ok());
  auto ip = packet::parse_ipv4(outs[0].frame.data().subspan(eth->wire_size()));
  ASSERT_TRUE(ip.is_ok());
  EXPECT_EQ(ip->protocol, packet::kIpProtoEsp);
  EXPECT_EQ(ip->src.to_string(), "198.51.100.1");
  EXPECT_EQ(ip->dst.to_string(), "198.51.100.2");
  auto esp = packet::parse_esp(
      outs[0].frame.data().subspan(eth->wire_size() + ip->header_size()));
  ASSERT_TRUE(esp.is_ok());
  EXPECT_EQ(esp->spi, 1001u);
  EXPECT_EQ(esp->sequence, 1u);
  EXPECT_EQ(initiator.stats().encapsulated, 1u);
}

TEST(Ipsec, CiphertextHidesPlaintext) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  auto plain = plaintext_frame(300, 7);
  // Remember a distinctive plaintext run (the inner IP src address bytes).
  const std::vector<std::uint8_t> inner(plain.data().begin() + 14,
                                        plain.data().begin() + 34);
  auto outs = initiator.process(kDefaultContext, 0, 0, std::move(plain));
  ASSERT_EQ(outs.size(), 1u);
  const auto wire = outs[0].frame.data();
  // The inner header must not appear verbatim in the ESP packet.
  auto it = std::search(wire.begin() + 34, wire.end(), inner.begin(),
                        inner.end());
  EXPECT_EQ(it, wire.end());
}

TEST(Ipsec, TunnelRoundTripRestoresInnerPacket) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());

  auto original = plaintext_frame(500, 3);
  // Capture the inner IP packet for comparison.
  const std::vector<std::uint8_t> inner_before(original.data().begin() + 14,
                                               original.data().end());

  auto encrypted =
      initiator.process(kDefaultContext, 0, 0, std::move(original));
  ASSERT_EQ(encrypted.size(), 1u);
  auto decrypted = responder.process(kDefaultContext, 1, 0,
                                     std::move(encrypted[0].frame));
  ASSERT_EQ(decrypted.size(), 1u);
  EXPECT_EQ(decrypted[0].port, 0u);

  const std::vector<std::uint8_t> inner_after(
      decrypted[0].frame.data().begin() + 14,
      decrypted[0].frame.data().end());
  EXPECT_EQ(inner_before, inner_after);
  EXPECT_EQ(responder.stats().decapsulated, 1u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
}

class IpsecPayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IpsecPayloadSizes, RoundTripAnySize) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto original = plaintext_frame(GetParam(), GetParam() + 11);
  const std::vector<std::uint8_t> inner_before(original.data().begin() + 14,
                                               original.data().end());
  auto enc = initiator.process(kDefaultContext, 0, 0, std::move(original));
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  const std::vector<std::uint8_t> inner_after(
      dec[0].frame.data().begin() + 14, dec[0].frame.data().end());
  EXPECT_EQ(inner_before, inner_after);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IpsecPayloadSizes,
                         ::testing::Values(0, 1, 14, 15, 16, 100, 576, 1408));

TEST(Ipsec, SequenceNumbersIncrease) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  for (std::uint32_t i = 1; i <= 5; ++i) {
    auto outs =
        initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, i));
    ASSERT_EQ(outs.size(), 1u);
    auto eth = packet::parse_ethernet(outs[0].frame.data());
    auto esp = packet::parse_esp(
        outs[0].frame.data().subspan(eth->wire_size() + 20));
    EXPECT_EQ(esp->sequence, i);
  }
}

TEST(Ipsec, TamperedPacketFailsAuthentication) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(128, 9));
  ASSERT_EQ(enc.size(), 1u);
  // Flip one ciphertext byte (beyond headers: eth 14 + ip 20 + esp 8 + iv 16).
  enc[0].frame[60] ^= 0x01;
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, ReplayedPacketDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(128, 4));
  ASSERT_EQ(enc.size(), 1u);
  packet::PacketBuffer copy = packet::PacketBuffer::copy_of(enc[0].frame.data());
  ASSERT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(enc[0].frame))
                .size(),
            1u);
  auto replay = responder.process(kDefaultContext, 1, 0, std::move(copy));
  EXPECT_TRUE(replay.empty());
  EXPECT_EQ(responder.stats().replay_drops, 1u);
}

TEST(Ipsec, OutOfOrderWithinWindowAccepted) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  std::vector<packet::PacketBuffer> encrypted;
  for (int i = 0; i < 3; ++i) {
    auto outs =
        initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, i));
    encrypted.push_back(std::move(outs[0].frame));
  }
  // Deliver 3, 1, 2 — all must decrypt.
  EXPECT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(encrypted[2]))
                .size(),
            1u);
  EXPECT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(encrypted[0]))
                .size(),
            1u);
  EXPECT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(encrypted[1]))
                .size(),
            1u);
  EXPECT_EQ(responder.stats().replay_drops, 0u);
}

TEST(Ipsec, WrongSpiDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  NfConfig bad = responder_config();
  bad["spi_in"] = "9999";  // expects a different SPI
  IpsecEndpoint responder = make_endpoint(bad);
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, 5));
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().no_sa, 1u);
}

TEST(Ipsec, WrongDestinationDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  NfConfig other = responder_config();
  other["local_ip"] = "198.51.100.77";  // not the tunnel destination
  IpsecEndpoint responder = make_endpoint(other);
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, 6));
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
}

TEST(Ipsec, UnconfiguredContextDropsTraffic) {
  IpsecEndpoint endpoint;
  auto outs = endpoint.process(kDefaultContext, 0, 0, plaintext_frame());
  EXPECT_TRUE(outs.empty());
  EXPECT_EQ(endpoint.stats().no_sa, 1u);
}

TEST(Ipsec, MultiTunnelContextsAreIsolated) {
  // One instance, two tunnels with different keys — the sharable-NNF case.
  IpsecEndpoint shared;
  ASSERT_TRUE(shared.configure(0, initiator_config()).is_ok());
  ASSERT_TRUE(shared.add_context(1).is_ok());
  NfConfig second = initiator_config();
  second["spi_out"] = "3003";
  second["enc_key"] = "ffeeddccbbaa99887766554433221100";
  ASSERT_TRUE(shared.configure(1, second).is_ok());

  auto out0 = shared.process(0, 0, 0, plaintext_frame(100, 1));
  auto out1 = shared.process(1, 0, 0, plaintext_frame(100, 1));
  ASSERT_EQ(out0.size(), 1u);
  ASSERT_EQ(out1.size(), 1u);

  auto spi_of = [](const packet::PacketBuffer& frame) {
    auto esp = packet::parse_esp(frame.data().subspan(34));
    return esp->spi;
  };
  EXPECT_EQ(spi_of(out0[0].frame), 1001u);
  EXPECT_EQ(spi_of(out1[0].frame), 3003u);
  // Same plaintext, different keys -> different ciphertext bodies.
  EXPECT_NE(std::vector<std::uint8_t>(out0[0].frame.data().begin() + 42,
                                      out0[0].frame.data().end()),
            std::vector<std::uint8_t>(out1[0].frame.data().begin() + 42,
                                      out1[0].frame.data().end()));
}

TEST(Ipsec, RemoveContextDropsTunnel) {
  IpsecEndpoint endpoint;
  ASSERT_TRUE(endpoint.add_context(1).is_ok());
  ASSERT_TRUE(endpoint.configure(1, initiator_config()).is_ok());
  ASSERT_TRUE(endpoint.remove_context(1).is_ok());
  auto outs = endpoint.process(1, 0, 0, plaintext_frame());
  EXPECT_TRUE(outs.empty());
}

TEST(Ipsec, ConfigValidation) {
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["enc_key"] = "short";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
  config = initiator_config();
  config["spi_out"] = "0";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
  config = initiator_config();
  config["local_ip"] = "not-an-ip";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
  config = initiator_config();
  config["bogus"] = "1";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

TEST(Ipsec, EspOverheadIsBounded) {
  // Tunnel-mode ESP adds a predictable overhead. GCM (the default):
  // new eth (14) + outer IP (20) + ESP (8) + IV (8) + pad (<= 3) +
  // pad_len + next_hdr (2) + ICV (16). cbc-hmac: IV is 16 and padding
  // runs to the 16-byte block size.
  IpsecEndpoint gcm = make_endpoint(initiator_config());
  NfConfig cbc_config = initiator_config();
  cbc_config["esp_transform"] = "cbc-hmac";
  IpsecEndpoint cbc = make_endpoint(cbc_config);
  for (std::size_t size : {0u, 100u, 1000u, 1408u}) {
    auto plain = plaintext_frame(size, size);
    const std::size_t inner_ip_len = plain.size() - 14;

    packet::PacketBuffer copy = packet::PacketBuffer::copy_of(plain.data());
    auto outs = gcm.process(kDefaultContext, 0, 0, std::move(plain));
    ASSERT_EQ(outs.size(), 1u);
    const std::size_t gcm_overhead = outs[0].frame.size() - 14 - inner_ip_len;
    EXPECT_GE(gcm_overhead, 20u + 8u + 8u + 2u + 16u);
    EXPECT_LE(gcm_overhead, 20u + 8u + 8u + 3u + 2u + 16u);

    auto cbc_outs = cbc.process(kDefaultContext, 0, 0, std::move(copy));
    ASSERT_EQ(cbc_outs.size(), 1u);
    const std::size_t cbc_overhead =
        cbc_outs[0].frame.size() - 14 - inner_ip_len;
    EXPECT_GE(cbc_overhead, 20u + 8u + 16u + 2u + 16u);
    EXPECT_LE(cbc_overhead, 20u + 8u + 16u + 16u + 2u + 16u);
    // The stream-mode transform never pads past 4-byte alignment, so it
    // is strictly leaner on the wire.
    EXPECT_LT(gcm_overhead, cbc_overhead);
  }
}

TEST(Ipsec, DefaultTransformIsGcm) {
  // RFC 4106 wire shape: ESP header, then an 8-byte explicit IV carrying
  // the 64-bit sequence counter, ciphertext, 16-byte ICV.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  auto outs = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(outs.size(), 1u);
  const auto wire = outs[0].frame.data();
  auto esp = packet::parse_esp(wire.subspan(34));
  ASSERT_TRUE(esp.is_ok());
  EXPECT_EQ(esp->sequence, 1u);
  // Explicit IV = be64(seq).
  const std::uint8_t want_iv[8] = {0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_TRUE(std::equal(want_iv, want_iv + 8, wire.begin() + 42));
}

TEST(Ipsec, TransformsDoNotInteroperate) {
  // A GCM initiator's packets must fail cleanly (auth failure, no crash,
  // no plaintext release) at a cbc-hmac responder — the transform is part
  // of the SA, not negotiated on the wire.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  NfConfig cbc_config = responder_config();
  cbc_config["esp_transform"] = "cbc-hmac";
  IpsecEndpoint responder = make_endpoint(cbc_config);
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().decapsulated, 0u);
}

TEST(Ipsec, CbcHmacRoundTripStillWorks) {
  NfConfig init = initiator_config();
  NfConfig resp = responder_config();
  init["esp_transform"] = "cbc-hmac";
  resp["esp_transform"] = "cbc-hmac";
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(resp);
  auto original = plaintext_frame(500, 3);
  const std::vector<std::uint8_t> inner_before(original.data().begin() + 14,
                                               original.data().end());
  auto enc = initiator.process(kDefaultContext, 0, 0, std::move(original));
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  const std::vector<std::uint8_t> inner_after(
      dec[0].frame.data().begin() + 14, dec[0].frame.data().end());
  EXPECT_EQ(inner_before, inner_after);
}

TEST(Ipsec, CbcHostileCiphertextLengthIsMalformed) {
  // A peer holding the keys can tag a ciphertext that is not whole AES
  // blocks. The ICV verifies, so the length check after it must catch
  // the frame: counted malformed, nothing emitted.
  NfConfig init = initiator_config();
  NfConfig resp = responder_config();
  init["esp_transform"] = "cbc-hmac";
  resp["esp_transform"] = "cbc-hmac";
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(resp);
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame(200));
  ASSERT_EQ(enc.size(), 1u);
  const auto wire = enc[0].frame.data();

  // Eth | IPv4 | ESP | IV | ciphertext | ICV: drop 8 ciphertext bytes,
  // fix the outer total length and re-tag with the real auth key.
  constexpr std::size_t kEspOff =
      packet::kEthernetHeaderSize + packet::kIpv4MinHeaderSize;
  const std::size_t kept = wire.size() - IpsecEndpoint::kIcvSize - 8;
  std::vector<std::uint8_t> forged(wire.begin(), wire.begin() + kept);
  auto ip = packet::parse_ipv4(
      std::span<const std::uint8_t>(forged).subspan(
          packet::kEthernetHeaderSize));
  ASSERT_TRUE(ip.is_ok());
  ip->total_length = static_cast<std::uint16_t>(
      kept - packet::kEthernetHeaderSize + IpsecEndpoint::kIcvSize);
  packet::write_ipv4(*ip, std::span<std::uint8_t>(forged).subspan(
                              packet::kEthernetHeaderSize,
                              packet::kIpv4MinHeaderSize));
  std::vector<std::uint8_t> auth_key;
  ASSERT_TRUE(util::hex_decode(kAuthKey, auth_key));
  const auto icv = crypto::HmacSha256::mac(
      auth_key, std::span<const std::uint8_t>(forged).subspan(kEspOff));
  forged.insert(forged.end(), icv.begin(),
                icv.begin() + IpsecEndpoint::kIcvSize);
  ASSERT_NE((forged.size() - kEspOff - packet::kEspHeaderSize -
             IpsecEndpoint::kIvSize - IpsecEndpoint::kIcvSize) %
                16,
            0u);

  auto dec = responder.process(kDefaultContext, 1, 0,
                               packet::PacketBuffer::copy_of(forged));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().malformed, 1u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
  EXPECT_EQ(responder.stats().decapsulated, 0u);
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->malformed, 1u);
}

TEST(Ipsec, GcmSaltFromExtendedKeyChangesWireAndRoundTrips) {
  // 40-hex enc_key = AES-128 key + RFC 4106 salt. The salt feeds the GCM
  // nonce, so two tunnels differing only in salt must produce different
  // ciphertext — and both peers need the same salt to interoperate.
  NfConfig init = initiator_config();
  NfConfig resp = responder_config();
  const std::string salted_key = std::string(kEncKey) + "aabbccdd";
  init["enc_key"] = salted_key;
  resp["enc_key"] = salted_key;
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(resp);
  IpsecEndpoint zero_salt = make_endpoint(initiator_config());

  auto frame = plaintext_frame(300, 5);
  packet::PacketBuffer copy = packet::PacketBuffer::copy_of(frame.data());
  auto salted = initiator.process(kDefaultContext, 0, 0, std::move(frame));
  auto unsalted = zero_salt.process(kDefaultContext, 0, 0, std::move(copy));
  ASSERT_EQ(salted.size(), 1u);
  ASSERT_EQ(unsalted.size(), 1u);
  EXPECT_NE(std::vector<std::uint8_t>(salted[0].frame.data().begin() + 50,
                                      salted[0].frame.data().end()),
            std::vector<std::uint8_t>(unsalted[0].frame.data().begin() + 50,
                                      unsalted[0].frame.data().end()));

  auto dec = responder.process(kDefaultContext, 1, 0,
                               std::move(salted[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
}

TEST(Ipsec, GcmTamperedIvFailsAuthentication) {
  // The explicit IV feeds the nonce: flipping it must break the tag even
  // though the IV itself is not part of the AAD.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  enc[0].frame[45] ^= 0x01;  // eth 14 + ip 20 + esp 8 = 42; IV at 42..49
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, GcmTamperedIcvFailsAuthentication) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  enc[0].frame[enc[0].frame.size() - 1] ^= 0x01;  // last ICV byte
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, InvalidTransformRejected) {
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["esp_transform"] = "chacha";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

TEST(Ipsec, GcmDirectionsNeverShareANonce) {
  // Both directions run one enc_key + salt, so the per-direction SPI
  // must reach the GCM nonce: the initiator's packet #1 and the
  // responder's packet #1 (same plaintext, same sequence number, same
  // key) must NOT produce the same keystream — identical ciphertext
  // here would mean a reused (key, nonce) pair, which breaks GCM
  // entirely.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto frame = plaintext_frame(300, 7);
  packet::PacketBuffer copy = packet::PacketBuffer::copy_of(frame.data());
  auto a = initiator.process(kDefaultContext, 0, 0, std::move(frame));
  auto b = responder.process(kDefaultContext, 0, 0, std::move(copy));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  // Ciphertext starts after eth(14) + ip(20) + esp(8) + iv(8) = 50.
  EXPECT_NE(std::vector<std::uint8_t>(a[0].frame.data().begin() + 50,
                                      a[0].frame.data().end()),
            std::vector<std::uint8_t>(b[0].frame.data().begin() + 50,
                                      b[0].frame.data().end()));
}

TEST(Ipsec, EqualSpisRejected) {
  // The SPI is the only per-direction component of the nonce/IV
  // derivation, so spi_out == spi_in must not configure.
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["spi_in"] = config["spi_out"];
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

// ---------------------------------------------------------------------------
// Replay-window edge cases (64-entry window; sequence steered through the
// outbound_sa test hook so exact wire sequences reach the responder).
// ---------------------------------------------------------------------------

// Sends one packet with wire sequence `seq` from initiator to responder
// and reports whether the responder emitted it.
bool deliver_seq(IpsecEndpoint& initiator, IpsecEndpoint& responder,
                 std::uint64_t seq) {
  initiator.outbound_sa(kDefaultContext)->seq = seq - 1;  // encap adds 1
  auto enc = initiator.process(kDefaultContext, 0, 0,
                               plaintext_frame(64, seq));
  EXPECT_EQ(enc.size(), 1u);
  if (enc.size() != 1) return false;
  return responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
             .size() == 1;
}

TEST(Ipsec, ReplayWindowAdvanceAcrossBoundary) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  EXPECT_TRUE(deliver_seq(initiator, responder, 1));
  // A jump past the whole 64-entry window must reset the bitmap...
  EXPECT_TRUE(deliver_seq(initiator, responder, 70));
  // ...after which seq 6 (offset 64) is exactly one slot too old...
  EXPECT_FALSE(deliver_seq(initiator, responder, 6));
  EXPECT_EQ(responder.stats().replay_drops, 1u);
  // ...and seq 7 (offset 63) is the last slot still inside the window.
  EXPECT_TRUE(deliver_seq(initiator, responder, 7));
  EXPECT_EQ(responder.stats().replay_drops, 1u);
}

TEST(Ipsec, DuplicateAtWindowEdgeDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  EXPECT_TRUE(deliver_seq(initiator, responder, 64));
  // Offset 63: the very edge of the window, accepted once...
  EXPECT_TRUE(deliver_seq(initiator, responder, 1));
  // ...and only once — the edge bit must have been recorded.
  EXPECT_FALSE(deliver_seq(initiator, responder, 1));
  // The top of the window is likewise a duplicate.
  EXPECT_FALSE(deliver_seq(initiator, responder, 64));
  EXPECT_EQ(responder.stats().replay_drops, 2u);
}

// ---------------------------------------------------------------------------
// ESN (RFC 4304 64-bit extended sequence numbers).
// ---------------------------------------------------------------------------

NfConfig esn_config(NfConfig base) {
  base["esn"] = "on";
  return base;
}

TEST(Ipsec, EsnRoundTripOnEveryBackend) {
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    auto original = plaintext_frame(500, 3);
    const std::vector<std::uint8_t> inner_before(
        original.data().begin() + 14, original.data().end());
    auto enc =
        initiator.process(kDefaultContext, 0, 0, std::move(original));
    ASSERT_EQ(enc.size(), 1u) << backend->name();
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    ASSERT_EQ(dec.size(), 1u) << backend->name();
    const std::vector<std::uint8_t> inner_after(
        dec[0].frame.data().begin() + 14, dec[0].frame.data().end());
    EXPECT_EQ(inner_before, inner_after) << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 0u) << backend->name();
  }
}

TEST(Ipsec, EsnTamperedPacketFailsOnEveryBackend) {
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    auto enc =
        initiator.process(kDefaultContext, 0, 0, plaintext_frame(128, 9));
    ASSERT_EQ(enc.size(), 1u) << backend->name();
    enc[0].frame[60] ^= 0x01;  // a ciphertext byte
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    EXPECT_TRUE(dec.empty()) << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 1u) << backend->name();
  }
}

TEST(Ipsec, EsnSeqHiRolloverRoundTripsOnEveryBackend) {
  // An established tunnel crossing the 2^32 seq-lo boundary: the wire
  // seq field wraps to small values while the recovered 64-bit sequence
  // keeps climbing, so packets keep authenticating and the window never
  // treats the wrap as a replay.
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    const std::uint64_t boundary = 1ULL << 32;
    initiator.outbound_sa(kDefaultContext)->seq = boundary - 3;
    // Simulate the established session: the responder has authenticated
    // everything up to the same point.
    responder.inbound_sa(kDefaultContext)->replay_top = boundary - 3;
    responder.inbound_sa(kDefaultContext)->replay_bitmap = 1;
    for (int i = 0; i < 6; ++i) {
      auto enc = initiator.process(kDefaultContext, 0, 0,
                                   plaintext_frame(100, i));
      ASSERT_EQ(enc.size(), 1u) << backend->name() << " packet " << i;
      auto dec = responder.process(kDefaultContext, 1, 0,
                                   std::move(enc[0].frame));
      ASSERT_EQ(dec.size(), 1u) << backend->name() << " packet " << i;
    }
    // The recovered high half advanced past the boundary.
    EXPECT_EQ(responder.inbound_sa(kDefaultContext)->replay_top,
              boundary + 3)
        << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 0u) << backend->name();
    EXPECT_EQ(responder.stats().replay_drops, 0u) << backend->name();
  }
}

TEST(Ipsec, EsnWrongSeqHiFailsAuthentication) {
  // A packet whose seq-lo lands below the responder's window bottom is
  // inferred to belong to the *next* 2^32 cycle (RFC 4304 A2). The
  // sender's actual seq-hi was 0, so the tag — computed over the
  // recovered hi — must fail: an attacker cannot replay an old cycle's
  // packet into a window that has moved on.
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    auto enc = initiator.process(kDefaultContext, 0, 0,
                                 plaintext_frame(128, 5));
    ASSERT_EQ(enc.size(), 1u) << backend->name();
    // Window far ahead: top at hi=1, lo=1000 -> wire seq 1 recovers hi=2.
    responder.inbound_sa(kDefaultContext)->replay_top = (1ULL << 32) | 1000;
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    EXPECT_TRUE(dec.empty()) << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 1u) << backend->name();
    EXPECT_EQ(responder.stats().replay_drops, 0u) << backend->name();
  }
}

TEST(Ipsec, EsnCbcHmacRoundTripAndRollover) {
  // ESN is transform-independent: the cbc-hmac path authenticates the
  // implicit seq-hi suffix (RFC 4303 §2.2.1) instead of widening an AAD.
  NfConfig init = esn_config(initiator_config());
  NfConfig resp = esn_config(responder_config());
  init["esp_transform"] = "cbc-hmac";
  resp["esp_transform"] = "cbc-hmac";
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(resp);
  const std::uint64_t boundary = 1ULL << 32;
  initiator.outbound_sa(kDefaultContext)->seq = boundary - 2;
  responder.inbound_sa(kDefaultContext)->replay_top = boundary - 2;
  responder.inbound_sa(kDefaultContext)->replay_bitmap = 1;
  for (int i = 0; i < 4; ++i) {
    auto enc = initiator.process(kDefaultContext, 0, 0,
                                 plaintext_frame(200, i));
    ASSERT_EQ(enc.size(), 1u);
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    ASSERT_EQ(dec.size(), 1u) << "packet " << i;
  }
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->replay_top, boundary + 2);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
}

TEST(Ipsec, EsnMismatchFailsCleanly) {
  // esn is SA configuration, not negotiated on the wire: an ESN sender's
  // packets (12-byte AAD) must fail auth at a non-ESN receiver (8-byte
  // AAD) even while seq-hi is still zero.
  IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, EsnConfigValidation) {
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["esn"] = "banana";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

TEST(Ipsec, EsnBurstRoundTrip) {
  // The burst path shares parse_esp_ingress, so the per-packet seq-hi
  // recovery feeds AAD + replay there too — across a rollover.
  IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
  IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
  const std::uint64_t boundary = 1ULL << 32;
  initiator.outbound_sa(kDefaultContext)->seq = boundary - 4;
  responder.inbound_sa(kDefaultContext)->replay_top = boundary - 4;
  responder.inbound_sa(kDefaultContext)->replay_bitmap = 1;
  packet::PacketBurst burst;
  for (int i = 0; i < 8; ++i) burst.push_back(plaintext_frame(120, i));
  auto enc = initiator.process_burst(kDefaultContext, 0, 0,
                                     std::move(burst));
  ASSERT_EQ(enc.size(), 8u);
  packet::PacketBurst black;
  for (auto& o : enc) black.push_back(std::move(o.frame));
  auto dec = responder.process_burst(kDefaultContext, 1, 0,
                                     std::move(black));
  EXPECT_EQ(dec.size(), 8u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->replay_top, boundary + 4);
}

TEST(Ipsec, MacRewriteConfigRespected) {
  NfConfig config = initiator_config();
  config["outer_src_mac"] = "02:00:00:00:00:aa";
  config["outer_dst_mac"] = "02:00:00:00:00:bb";
  IpsecEndpoint initiator = make_endpoint(config);
  auto outs = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  auto eth = packet::parse_ethernet(outs[0].frame.data());
  EXPECT_EQ(eth->src.to_string(), "02:00:00:00:00:aa");
  EXPECT_EQ(eth->dst.to_string(), "02:00:00:00:00:bb");
}

}  // namespace
}  // namespace nnfv::nnf
