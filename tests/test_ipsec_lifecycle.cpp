// SA lifecycle tests: soft/hard lifetimes, the ACTIVE -> REKEYING ->
// DRAINING -> DEAD rekey state machine with make-before-break cutover,
// non-ESN sequence-space exhaustion, SAD scaling, and the adversarial
// fault-injection corpus (replay floods, corrupted frames, truncations,
// garbage) with full drop accounting.
#include <gtest/gtest.h>

#include "crypto/backend.hpp"
#include "crypto/cipher_modes.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "traffic/adversary.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {
namespace {

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";
constexpr const char* kEncKey2 = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff";
constexpr const char* kAuthKey2 =
    "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f";

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

/// Mirrored make-before-break keymat for the pair: the initiator's new
/// outbound SPI is the responder's new inbound SPI and vice versa.
NfConfig initiator_rekey() {
  return {{"rekey_spi_out", "1003"},
          {"rekey_spi_in", "2004"},
          {"rekey_enc_key", kEncKey2},
          {"rekey_auth_key", kAuthKey2}};
}

NfConfig responder_rekey() {
  return {{"rekey_spi_out", "2004"},
          {"rekey_spi_in", "1003"},
          {"rekey_enc_key", kEncKey2},
          {"rekey_auth_key", kAuthKey2}};
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

std::uint32_t wire_spi(const packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  auto esp = packet::parse_esp(frame.data().subspan(eth->wire_size() + 20));
  return esp->spi;
}

/// Total inbound drops an endpoint has accounted for, every reason.
std::uint64_t accounted_drops(const IpsecEndpoint& ep) {
  const IpsecStats& s = ep.stats();
  return s.auth_failures + s.replay_drops + s.malformed + s.no_sa +
         s.lifetime_drops;
}

// ---------------------------------------------------------------------------
// Rekey state machine
// ---------------------------------------------------------------------------

TEST(IpsecLifecycle, SoftPacketThresholdCutsOverToStagedKeymat) {
  NfConfig init = initiator_config();
  init["life_soft_packets"] = "5";
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(responder_config());
  ASSERT_TRUE(
      initiator.configure(kDefaultContext, initiator_rekey()).is_ok());
  ASSERT_TRUE(
      responder.configure(kDefaultContext, responder_rekey()).is_ok());
  EXPECT_EQ(initiator.stats().rekeys_started, 1u);
  ASSERT_NE(initiator.staged_outbound_sa(kDefaultContext), nullptr);

  // 10 packets: the first 5 ride the old SA, the cutover happens before
  // packet 6, and every single one decapsulates — zero loss.
  for (int i = 0; i < 10; ++i) {
    auto enc = initiator.process(kDefaultContext, 0, 0,
                                 plaintext_frame(120, 100 + i));
    ASSERT_EQ(enc.size(), 1u) << "packet " << i;
    EXPECT_EQ(wire_spi(enc[0].frame), i < 5 ? 1001u : 1003u)
        << "packet " << i;
    auto dec = responder.process(kDefaultContext, 1, 0,
                                 std::move(enc[0].frame));
    ASSERT_EQ(dec.size(), 1u) << "packet " << i;
  }
  EXPECT_EQ(initiator.stats().rekeys_completed, 1u);
  EXPECT_EQ(initiator.outbound_sa(kDefaultContext)->spi, 1003u);
  // The superseded inbound generation is draining, not gone.
  ASSERT_NE(initiator.draining_sa(kDefaultContext), nullptr);
  EXPECT_EQ(initiator.draining_sa(kDefaultContext)->spi, 2002u);
  EXPECT_EQ(initiator.draining_sa(kDefaultContext)->state,
            SaState::kDraining);
  EXPECT_EQ(responder.stats().decapsulated, 10u);
  EXPECT_EQ(accounted_drops(responder), 0u);
}

TEST(IpsecLifecycle, RekeyCutoverNowSwitchesOnNextPacket) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(100, 1));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_EQ(wire_spi(enc[0].frame), 1001u);
  ASSERT_EQ(
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
          .size(),
      1u);

  NfConfig rekey = initiator_rekey();
  rekey["rekey_cutover"] = "now";
  ASSERT_TRUE(initiator.configure(kDefaultContext, rekey).is_ok());
  ASSERT_TRUE(
      responder.configure(kDefaultContext, responder_rekey()).is_ok());

  enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame(100, 2));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_EQ(wire_spi(enc[0].frame), 1003u);
  EXPECT_EQ(
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
          .size(),
      1u);
  EXPECT_EQ(initiator.stats().rekeys_completed, 1u);
}

TEST(IpsecLifecycle, InFlightOldGenerationPacketsDrainAfterCutover) {
  NfConfig init = initiator_config();
  init["life_soft_packets"] = "3";
  IpsecEndpoint initiator = make_endpoint(init);
  NfConfig resp = responder_config();
  resp["life_soft_packets"] = "3";
  IpsecEndpoint responder = make_endpoint(resp);
  ASSERT_TRUE(
      initiator.configure(kDefaultContext, initiator_rekey()).is_ok());
  ASSERT_TRUE(
      responder.configure(kDefaultContext, responder_rekey()).is_ok());

  // Capture old-generation ciphertext, then force the responder through
  // its own cutover (it sends 4 packets; the initiator accepts on its
  // staged inbound SA).
  auto in_flight =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(90, 7));
  ASSERT_EQ(in_flight.size(), 1u);
  for (int i = 0; i < 4; ++i) {
    auto enc = responder.process(kDefaultContext, 0, 0,
                                 plaintext_frame(90, 20 + i));
    ASSERT_EQ(enc.size(), 1u);
    ASSERT_EQ(
        initiator.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
            .size(),
        1u);
  }
  ASSERT_EQ(responder.stats().rekeys_completed, 1u);
  ASSERT_NE(responder.draining_sa(kDefaultContext), nullptr);

  // The pre-cutover packet arrives late: the draining inbound SA (old
  // SPI 1001) still accepts it.
  auto dec = responder.process(kDefaultContext, 1, 0,
                               std::move(in_flight[0].frame));
  EXPECT_EQ(dec.size(), 1u);
  EXPECT_EQ(accounted_drops(responder), 0u);
  EXPECT_EQ(responder.draining_sa(kDefaultContext)->packets, 1u);
}

TEST(IpsecLifecycle, ReplayWindowIsFreshAcrossSpiSwitchover) {
  NfConfig resp = responder_config();
  resp["life_soft_packets"] = "2";
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(resp);
  ASSERT_TRUE(
      initiator.configure(kDefaultContext, initiator_rekey()).is_ok());
  ASSERT_TRUE(
      responder.configure(kDefaultContext, responder_rekey()).is_ok());

  // Old generation runs its sequence up, and we keep a duplicate.
  packet::PacketBuffer old_dup;
  for (int i = 0; i < 3; ++i) {
    auto enc = initiator.process(kDefaultContext, 0, 0,
                                 plaintext_frame(80, 40 + i));
    ASSERT_EQ(enc.size(), 1u);
    old_dup = packet::PacketBuffer::copy_of(enc[0].frame.data());
    ASSERT_EQ(
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
            .size(),
        1u);
  }
  // Cut the initiator over by force (responder's inbound switchover).
  NfConfig now_rekey = initiator_rekey();
  now_rekey["rekey_cutover"] = "now";
  // Restaging with cutover=now replaces the pending soft-staged rekey.
  ASSERT_TRUE(initiator.configure(kDefaultContext, now_rekey).is_ok());

  // New generation starts at wire seq 1 — the fresh SA's replay window
  // must accept it even though the old SA was already at seq 3.
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(80, 50));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_EQ(wire_spi(enc[0].frame), 1003u);
  packet::PacketBuffer new_dup = packet::PacketBuffer::copy_of(enc[0].frame.data());
  ASSERT_EQ(
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
          .size(),
      1u);

  // A duplicate on the *new* SA is a replay on the new window...
  EXPECT_TRUE(
      responder.process(kDefaultContext, 1, 0, std::move(new_dup)).empty());
  EXPECT_EQ(responder.stats().replay_drops, 1u);
  // ...and a duplicate of the old generation is a replay on the *old*
  // (still current on the responder, which has not cut over) SA: the two
  // windows are independent.
  EXPECT_TRUE(
      responder.process(kDefaultContext, 1, 0, std::move(old_dup)).empty());
  EXPECT_EQ(responder.stats().replay_drops, 2u);
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->replay_drops, 1u);
}

TEST(IpsecLifecycle, DrainDeadlineRetiresSupersededInboundSa) {
  NfConfig init = initiator_config();
  init["drain_ns"] = "1000";  // 1us drain window
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(responder_config());
  NfConfig rekey = initiator_rekey();
  rekey["rekey_cutover"] = "now";
  ASSERT_TRUE(initiator.configure(kDefaultContext, rekey).is_ok());
  ASSERT_TRUE(
      responder.configure(kDefaultContext, responder_rekey()).is_ok());

  // Cutover at t=0: the old inbound SA (2002) drains until t=1000.
  ASSERT_EQ(
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, 1))
          .size(),
      1u);
  ASSERT_NE(initiator.draining_sa(kDefaultContext), nullptr);

  // A responder packet on the old SA inside the window still decaps.
  auto enc =
      responder.process(kDefaultContext, 0, 0, plaintext_frame(64, 2));
  ASSERT_EQ(enc.size(), 1u);
  packet::PacketBuffer late = packet::PacketBuffer::copy_of(enc[0].frame.data());
  EXPECT_EQ(initiator.process(kDefaultContext, 1, 500,
                              std::move(enc[0].frame))
                .size(),
            1u);

  // Past the deadline the generation is retired: the SPI is gone from
  // the SAD, the late duplicate counts as no_sa, never UB.
  EXPECT_TRUE(
      initiator.process(kDefaultContext, 1, 2000, std::move(late)).empty());
  EXPECT_EQ(initiator.draining_sa(kDefaultContext), nullptr);
  EXPECT_EQ(initiator.stats().sas_retired, 1u);
  EXPECT_EQ(initiator.stats().no_sa, 1u);
}

TEST(IpsecLifecycle, StagedRekeyValidation) {
  IpsecEndpoint endpoint = make_endpoint(initiator_config());
  // Incomplete rekey bundles are rejected.
  EXPECT_FALSE(endpoint
                   .configure(kDefaultContext,
                              {{"rekey_spi_out", "1003"}})
                   .is_ok());
  // The staged inbound SPI must not collide with a live inbound SPI.
  EXPECT_FALSE(endpoint
                   .configure(kDefaultContext,
                              {{"rekey_spi_out", "1003"},
                               {"rekey_spi_in", "2002"},
                               {"rekey_enc_key", kEncKey2}})
                   .is_ok());
  // A valid bundle stages; restaging replaces (SAD stays at 2 entries:
  // current inbound + one staged inbound).
  ASSERT_TRUE(
      endpoint.configure(kDefaultContext, initiator_rekey()).is_ok());
  EXPECT_EQ(endpoint.sad_size(), 2u);
  NfConfig replacement = initiator_rekey();
  replacement["rekey_spi_in"] = "2006";
  ASSERT_TRUE(endpoint.configure(kDefaultContext, replacement).is_ok());
  EXPECT_EQ(endpoint.sad_size(), 2u);
  EXPECT_EQ(endpoint.staged_inbound_sa(kDefaultContext)->spi, 2006u);
  EXPECT_EQ(endpoint.stats().rekeys_started, 2u);
}

// ---------------------------------------------------------------------------
// Lifetimes and sequence exhaustion
// ---------------------------------------------------------------------------

TEST(IpsecLifecycle, NonEsnSequenceExhaustionHardStops) {
  NfConfig config = initiator_config();
  config["seq_headroom"] = "0";  // isolate the hard stop
  IpsecEndpoint endpoint = make_endpoint(config);
  endpoint.outbound_sa(kDefaultContext)->seq = 0xFFFFFFFFULL - 2;

  // Two packets left in the sequence space (2^32-2, 2^32-1)...
  EXPECT_EQ(
      endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, 1))
          .size(),
      1u);
  EXPECT_EQ(
      endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, 2))
          .size(),
      1u);
  EXPECT_EQ(endpoint.outbound_sa(kDefaultContext)->seq, 0xFFFFFFFFULL);

  // ...then the counter must not cycle (RFC 4303 §3.3.3): drop, count,
  // mark DEAD, and never move the sequence again.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, 3 + i))
            .empty());
  }
  EXPECT_EQ(endpoint.stats().lifetime_drops, 3u);
  EXPECT_EQ(endpoint.outbound_sa(kDefaultContext)->lifetime_drops, 3u);
  EXPECT_EQ(endpoint.outbound_sa(kDefaultContext)->state, SaState::kDead);
  EXPECT_EQ(endpoint.outbound_sa(kDefaultContext)->seq, 0xFFFFFFFFULL);
  EXPECT_EQ(endpoint.stats().encapsulated, 2u);
}

TEST(IpsecLifecycle, SequenceHeadroomCutsOverBeforeExhaustion) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  ASSERT_TRUE(
      initiator.configure(kDefaultContext, initiator_rekey()).is_ok());
  ASSERT_TRUE(
      responder.configure(kDefaultContext, responder_rekey()).is_ok());

  // Inside the default 4096-sequence headroom: the staged keymat absorbs
  // the soft trigger, no packet is ever dropped.
  initiator.outbound_sa(kDefaultContext)->seq = 0xFFFFFFFFULL - 100;
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, 1));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_EQ(wire_spi(enc[0].frame), 1003u);  // fresh SA, fresh sequence
  EXPECT_EQ(
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
          .size(),
      1u);
  EXPECT_EQ(initiator.stats().lifetime_drops, 0u);
  EXPECT_EQ(initiator.stats().rekeys_completed, 1u);
}

TEST(IpsecLifecycle, HardPacketLifetimeDropsWithoutStagedKeymat) {
  NfConfig config = initiator_config();
  config["life_hard_packets"] = "3";
  IpsecEndpoint endpoint = make_endpoint(config);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(
        endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, i))
            .size(),
        1u);
  }
  EXPECT_TRUE(
      endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, 9))
          .empty());
  EXPECT_EQ(endpoint.stats().lifetime_drops, 1u);
  EXPECT_EQ(endpoint.outbound_sa(kDefaultContext)->state, SaState::kDead);

  // Make-before-break repairs even a dead SA: staging keymat afterwards
  // resolves the next send into a cutover, not a drop.
  ASSERT_TRUE(
      endpoint.configure(kDefaultContext, initiator_rekey()).is_ok());
  auto enc =
      endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, 10));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_EQ(wire_spi(enc[0].frame), 1003u);
}

TEST(IpsecLifecycle, SoftExpiryWithoutStagedKeymatFlagsRekeying) {
  NfConfig config = initiator_config();
  config["life_soft_packets"] = "2";
  IpsecEndpoint endpoint = make_endpoint(config);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(
        endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, i))
            .size(),
        1u);
  }
  // Traffic continues (soft is advisory) but the SA asks for keymat.
  EXPECT_EQ(endpoint.outbound_sa(kDefaultContext)->state,
            SaState::kRekeying);
  EXPECT_EQ(endpoint.stats().lifetime_drops, 0u);
}

TEST(IpsecLifecycle, HardByteLifetimeEnforcedInbound) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  NfConfig resp = responder_config();
  resp["life_hard_bytes"] = "100";
  IpsecEndpoint responder = make_endpoint(resp);
  // First packet (≈160 inner bytes) passes and crosses the threshold;
  // the second is refused by the inbound hard stop.
  auto enc1 =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(120, 1));
  ASSERT_EQ(enc1.size(), 1u);
  EXPECT_EQ(
      responder.process(kDefaultContext, 1, 0, std::move(enc1[0].frame))
          .size(),
      1u);
  auto enc2 =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(120, 2));
  ASSERT_EQ(enc2.size(), 1u);
  EXPECT_TRUE(
      responder.process(kDefaultContext, 1, 0, std::move(enc2[0].frame))
          .empty());
  EXPECT_EQ(responder.stats().lifetime_drops, 1u);
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->state, SaState::kDead);
}

void expect_same_stats(const IpsecStats& a, const IpsecStats& b) {
  EXPECT_EQ(a.encapsulated, b.encapsulated);
  EXPECT_EQ(a.decapsulated, b.decapsulated);
  EXPECT_EQ(a.auth_failures, b.auth_failures);
  EXPECT_EQ(a.replay_drops, b.replay_drops);
  EXPECT_EQ(a.malformed, b.malformed);
  EXPECT_EQ(a.no_sa, b.no_sa);
  EXPECT_EQ(a.lifetime_drops, b.lifetime_drops);
  EXPECT_EQ(a.rekeys_started, b.rekeys_started);
  EXPECT_EQ(a.rekeys_completed, b.rekeys_completed);
  EXPECT_EQ(a.sas_retired, b.sas_retired);
}

void expect_same_outputs(const std::vector<NfOutput>& a,
                         const std::vector<NfOutput>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].port, b[i].port) << "output " << i;
    const auto x = a[i].frame.data();
    const auto y = b[i].frame.data();
    ASSERT_EQ(x.size(), y.size()) << "output " << i;
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin())) << "output " << i;
  }
}

/// Runs `count` frames through two identically configured endpoints on
/// `port`: once as one process_burst, once as `count` process() calls.
/// Returns both output vectors; outputs and stats() must not differ.
std::vector<NfOutput> burst_vs_serial(IpsecEndpoint& burst_ep,
                                      IpsecEndpoint& serial_ep,
                                      NfPortIndex port,
                                      std::vector<NfOutput>&& frames) {
  packet::PacketBurst burst;
  std::vector<packet::PacketBuffer> serial;
  for (NfOutput& f : frames) {
    serial.push_back(packet::PacketBuffer::copy_of(f.frame.data()));
    burst.push_back(std::move(f.frame));
  }
  auto burst_out =
      burst_ep.process_burst(kDefaultContext, port, 0, std::move(burst));
  std::vector<NfOutput> serial_out;
  for (packet::PacketBuffer& frame : serial) {
    for (NfOutput& o :
         serial_ep.process(kDefaultContext, port, 0, std::move(frame))) {
      serial_out.push_back(std::move(o));
    }
  }
  expect_same_outputs(burst_out, serial_out);
  expect_same_stats(burst_ep.stats(), serial_ep.stats());
  return burst_out;
}

TEST(IpsecLifecycle, BurstMatchesSerialCallsAcrossTransitions) {
  // Three transitions that fire inside one 16-frame burst, so the burst
  // takes the exclusive-lock path and must behave exactly like 16
  // process() calls: frame by frame through outbound_gate on encap, and
  // one inbound hard-lifetime check per frame on decap.
  struct Case {
    const char* name;
    NfConfig initiator;
    NfConfig responder;
    bool rekey;
    std::uint64_t start_seq;
    std::uint64_t encapsulated;
    std::uint64_t decapsulated;
  };
  NfConfig soft_init = initiator_config();
  soft_init["life_soft_packets"] = "5";
  NfConfig hard_init = initiator_config();
  hard_init["life_hard_packets"] = "10";
  NfConfig hard_resp = responder_config();
  hard_resp["life_hard_packets"] = "7";
  const std::vector<Case> cases = {
      // Cutover before frame 6; the responders see both generations.
      {"soft-packet cutover", soft_init, responder_config(), true, 0, 16,
       16},
      // 10 frames leave, 6 hit the outbound hard stop; the responders
      // accept 7 of the 10 and stop on their own inbound hard lifetime.
      {"hard packet lifetime", hard_init, hard_resp, false, 0, 10, 7},
      // The default 4096-sequence headroom trips at frame 8.
      {"sequence headroom", initiator_config(), responder_config(), true,
       0xFFFFFFFFULL - 4096 - 8, 16, 16},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    IpsecEndpoint init_burst = make_endpoint(c.initiator);
    IpsecEndpoint init_serial = make_endpoint(c.initiator);
    IpsecEndpoint resp_burst = make_endpoint(c.responder);
    IpsecEndpoint resp_serial = make_endpoint(c.responder);
    if (c.rekey) {
      for (IpsecEndpoint* ep : {&init_burst, &init_serial}) {
        ASSERT_TRUE(ep->configure(kDefaultContext, initiator_rekey()).is_ok());
      }
      for (IpsecEndpoint* ep : {&resp_burst, &resp_serial}) {
        ASSERT_TRUE(ep->configure(kDefaultContext, responder_rekey()).is_ok());
      }
    }
    init_burst.outbound_sa(kDefaultContext)->seq = c.start_seq;
    init_serial.outbound_sa(kDefaultContext)->seq = c.start_seq;

    std::vector<NfOutput> red;
    for (std::uint64_t i = 0; i < 16; ++i) {
      red.push_back(NfOutput{0, plaintext_frame(64 + 8 * i, 300 + i)});
    }
    auto black = burst_vs_serial(init_burst, init_serial, 0, std::move(red));
    EXPECT_EQ(init_burst.stats().encapsulated, c.encapsulated);
    EXPECT_EQ(init_burst.stats().lifetime_drops, 16 - c.encapsulated);
    EXPECT_EQ(init_burst.stats().rekeys_completed, c.rekey ? 1u : 0u);

    burst_vs_serial(resp_burst, resp_serial, 1, std::move(black));
    EXPECT_EQ(resp_burst.stats().decapsulated, c.decapsulated);
    EXPECT_EQ(resp_burst.stats().auth_failures, 0u);
  }
}

TEST(IpsecLifecycle, EsnDecapBurstMatchesSerialCallsAcrossSeqHiWrap) {
  // Steady state (shared lock), but ESN: each frame's seq-hi recovery
  // reads the replay window the previous frame advanced, so the decap
  // lane group must close after every frame. Frame 1 moves the window
  // into the next 2^32 cycle; frame 2 is a late old-cycle packet below
  // the new window, which serial processing attributes to the new cycle
  // (authentication failure), not to a replay of the old one.
  NfConfig init = initiator_config();
  init["esn"] = "on";
  NfConfig resp = responder_config();
  resp["esn"] = "on";
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint resp_burst = make_endpoint(resp);
  IpsecEndpoint resp_serial = make_endpoint(resp);
  const std::uint64_t boundary = 1ULL << 32;
  for (IpsecEndpoint* ep : {&resp_burst, &resp_serial}) {
    ep->inbound_sa(kDefaultContext)->replay_top = boundary - 16;
    ep->inbound_sa(kDefaultContext)->replay_bitmap = 1;
  }
  std::vector<NfOutput> black;
  for (std::uint64_t seq : {boundary + 0x50, boundary - 11, boundary + 0x51}) {
    initiator.outbound_sa(kDefaultContext)->seq = seq - 1;
    auto enc = initiator.process(kDefaultContext, 0, 0,
                                 plaintext_frame(80, seq & 0xFF));
    ASSERT_EQ(enc.size(), 1u);
    black.push_back(std::move(enc[0]));
  }
  burst_vs_serial(resp_burst, resp_serial, 1, std::move(black));
  EXPECT_EQ(resp_burst.stats().decapsulated, 2u);
  EXPECT_EQ(resp_burst.stats().auth_failures, 1u);
  EXPECT_EQ(resp_burst.stats().replay_drops, 0u);
}

// ---------------------------------------------------------------------------
// Rekey under traffic, every backend / both transforms
// ---------------------------------------------------------------------------

TEST(IpsecLifecycle, RekeyUnderLiveBurstTrafficZeroLossOnEveryBackend) {
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    for (const char* transform : {"gcm", "cbc-hmac"}) {
      NfConfig init = initiator_config();
      init["esp_transform"] = transform;
      init["life_soft_packets"] = "40";
      NfConfig resp = responder_config();
      resp["esp_transform"] = transform;
      IpsecEndpoint initiator = make_endpoint(init);
      IpsecEndpoint responder = make_endpoint(resp);
      ASSERT_TRUE(
          initiator.configure(kDefaultContext, initiator_rekey()).is_ok());
      ASSERT_TRUE(
          responder.configure(kDefaultContext, responder_rekey()).is_ok());

      // 16 bursts x 8 frames: the soft threshold trips mid-stream, the
      // cutover lands inside a burst, and not one frame is lost.
      std::uint64_t sent = 0;
      for (int b = 0; b < 16; ++b) {
        packet::PacketBurst burst;
        for (int i = 0; i < 8; ++i) {
          burst.push_back(plaintext_frame(100, 1000 + b * 8 + i));
        }
        sent += burst.size();
        auto enc = initiator.process_burst(kDefaultContext, 0, b,
                                           std::move(burst));
        ASSERT_EQ(enc.size(), 8u)
            << backend->name() << "/" << transform << " burst " << b;
        packet::PacketBurst black;
        for (NfOutput& output : enc) black.push_back(std::move(output.frame));
        auto dec = responder.process_burst(kDefaultContext, 1, b,
                                           std::move(black));
        ASSERT_EQ(dec.size(), 8u)
            << backend->name() << "/" << transform << " burst " << b;
      }
      EXPECT_EQ(initiator.stats().rekeys_completed, 1u)
          << backend->name() << "/" << transform;
      EXPECT_EQ(initiator.outbound_sa(kDefaultContext)->spi, 1003u);
      EXPECT_EQ(responder.stats().decapsulated, sent)
          << backend->name() << "/" << transform;
      EXPECT_EQ(accounted_drops(responder), 0u)
          << backend->name() << "/" << transform;
    }
  }
}

TEST(IpsecLifecycle, EsnBoundaryRekeyOnEveryBackend) {
  // Rekey staged while the old SA crosses the 2^32 seq-lo boundary: ESN
  // recovery, the replay window and the cutover must all compose.
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    NfConfig init = initiator_config();
    init["esn"] = "on";
    init["life_soft_packets"] = "4";
    NfConfig resp = responder_config();
    resp["esn"] = "on";
    IpsecEndpoint initiator = make_endpoint(init);
    IpsecEndpoint responder = make_endpoint(resp);
    ASSERT_TRUE(
        initiator.configure(kDefaultContext, initiator_rekey()).is_ok());
    ASSERT_TRUE(
        responder.configure(kDefaultContext, responder_rekey()).is_ok());

    const std::uint64_t boundary = 1ULL << 32;
    initiator.outbound_sa(kDefaultContext)->seq = boundary - 2;
    responder.inbound_sa(kDefaultContext)->replay_top = boundary - 2;
    responder.inbound_sa(kDefaultContext)->replay_bitmap = 1;

    // Packets 1-4 straddle the boundary on the old SA (seq 2^32-1,
    // 2^32, 2^32+1, 2^32+2); packet 5 rides the cutover.
    for (int i = 0; i < 8; ++i) {
      auto enc = initiator.process(kDefaultContext, 0, 0,
                                   plaintext_frame(90, 300 + i));
      ASSERT_EQ(enc.size(), 1u) << backend->name() << " packet " << i;
      EXPECT_EQ(wire_spi(enc[0].frame), i < 4 ? 1001u : 1003u)
          << backend->name() << " packet " << i;
      ASSERT_EQ(
          responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
              .size(),
          1u)
          << backend->name() << " packet " << i;
    }
    EXPECT_EQ(initiator.stats().rekeys_completed, 1u) << backend->name();
    EXPECT_EQ(accounted_drops(responder), 0u) << backend->name();
  }
}

// ---------------------------------------------------------------------------
// SAD scale
// ---------------------------------------------------------------------------

TEST(IpsecLifecycle, SadScalesToThousandsOfTunnels) {
  IpsecEndpoint initiator;
  IpsecEndpoint responder;
  constexpr std::uint32_t kTunnels = 2000;
  for (std::uint32_t i = 0; i < kTunnels; ++i) {
    const ContextId ctx = i;
    if (ctx != kDefaultContext) {
      ASSERT_TRUE(initiator.add_context(ctx).is_ok());
      ASSERT_TRUE(responder.add_context(ctx).is_ok());
    }
    NfConfig init = initiator_config();
    init["spi_out"] = std::to_string(100000 + i);
    init["spi_in"] = std::to_string(200000 + i);
    NfConfig resp = responder_config();
    resp["spi_out"] = std::to_string(200000 + i);
    resp["spi_in"] = std::to_string(100000 + i);
    ASSERT_TRUE(initiator.configure(ctx, init).is_ok());
    ASSERT_TRUE(responder.configure(ctx, resp).is_ok());
  }
  EXPECT_EQ(responder.sad_size(), kTunnels);

  // Spot-check decap across the population (first, middle, last).
  for (ContextId ctx : {0u, kTunnels / 2, kTunnels - 1}) {
    auto enc = initiator.process(ctx, 0, 0, plaintext_frame(80, ctx));
    ASSERT_EQ(enc.size(), 1u) << "ctx " << ctx;
    EXPECT_EQ(responder.process(ctx, 1, 0, std::move(enc[0].frame)).size(),
              1u)
        << "ctx " << ctx;
  }

  // Teardown shrinks the SAD; a packet for a removed tunnel is no_sa.
  auto orphan = initiator.process(7, 0, 0, plaintext_frame(80, 9));
  ASSERT_EQ(orphan.size(), 1u);
  ASSERT_TRUE(responder.remove_context(7).is_ok());
  EXPECT_EQ(responder.sad_size(), kTunnels - 1);
  EXPECT_TRUE(
      responder.process(7, 1, 0, std::move(orphan[0].frame)).empty());
}

// ---------------------------------------------------------------------------
// Fault injection: the adversarial corpus, fully accounted
// ---------------------------------------------------------------------------

TEST(IpsecLifecycle, AdversarialCorpusEveryDropAccounted) {
  for (const char* transform : {"gcm", "cbc-hmac"}) {
    NfConfig init = initiator_config();
    init["esp_transform"] = transform;
    NfConfig resp = responder_config();
    resp["esp_transform"] = transform;
    IpsecEndpoint initiator = make_endpoint(init);
    IpsecEndpoint responder = make_endpoint(resp);
    const std::size_t icv = std::string(transform) == "gcm"
                                ? IpsecEndpoint::kGcmIcvSize
                                : IpsecEndpoint::kIcvSize;
    const std::size_t iv = std::string(transform) == "gcm"
                               ? IpsecEndpoint::kGcmIvSize
                               : IpsecEndpoint::kIvSize;

    // A little legitimate traffic first, keeping one delivered frame as
    // the adversary's raw material.
    packet::PacketBuffer captured;
    for (int i = 0; i < 4; ++i) {
      auto enc = initiator.process(kDefaultContext, 0, 0,
                                   plaintext_frame(150, 70 + i));
      ASSERT_EQ(enc.size(), 1u);
      captured = packet::PacketBuffer::copy_of(enc[0].frame.data());
      ASSERT_EQ(
          responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
              .size(),
          1u);
    }
    const std::uint64_t good = responder.stats().decapsulated;

    traffic::EspAdversary adversary(1234);
    packet::PacketBurst corpus;
    // Replay flood: 32 verbatim duplicates of a delivered frame.
    for (auto& frame : adversary.replay_flood(captured, 32)) {
      corpus.push_back(std::move(frame));
    }
    // Auth-failure storm: flipped ciphertext and flipped ICV bits.
    for (int i = 0; i < 16; ++i) {
      corpus.push_back(adversary.corrupt_ciphertext(captured, icv));
      corpus.push_back(adversary.corrupt_icv(captured, icv));
    }
    // Truncations at every parsing boundary.
    for (auto& frame : adversary.truncation_sweep(captured, iv)) {
      corpus.push_back(std::move(frame));
    }
    // Garbage that is ESP only by protocol number.
    for (std::size_t bytes : {0u, 3u, 8u, 24u, 200u}) {
      corpus.push_back(adversary.garbage_esp(captured, bytes));
    }
    const std::uint64_t offered = adversary.counters().total();
    ASSERT_EQ(offered, corpus.size());

    // Not one adversarial frame may decapsulate, and every one must be
    // accounted under exactly one drop reason.
    auto out = responder.process_burst(kDefaultContext, 1, 0,
                                       std::move(corpus));
    EXPECT_TRUE(out.empty()) << transform;
    EXPECT_EQ(responder.stats().decapsulated, good) << transform;
    EXPECT_EQ(accounted_drops(responder), offered) << transform;
    EXPECT_GE(responder.stats().replay_drops, 32u) << transform;
    EXPECT_GE(responder.stats().auth_failures, 32u) << transform;
    EXPECT_GE(responder.stats().malformed,
              adversary.counters().truncated)
        << transform;
    // Per-SA accounting matches the endpoint view for the SA the storm
    // targeted.
    const SecurityAssociation* sa =
        responder.inbound_sa(kDefaultContext);
    EXPECT_EQ(sa->replay_drops, responder.stats().replay_drops)
        << transform;
    EXPECT_EQ(sa->auth_fail, responder.stats().auth_failures) << transform;
  }
}

/// Builds a *validly tagged* GCM ESP frame for the responder's inbound
/// SA whose decrypted trailer is hostile — the only way to reach the
/// pad-length / pad-content checks behind authentication.
packet::PacketBuffer forge_gcm_esp(std::uint32_t spi, std::uint64_t seq,
                                   std::vector<std::uint8_t> plaintext) {
  std::vector<std::uint8_t> key_bytes;
  EXPECT_TRUE(util::hex_decode(kEncKey, key_bytes));
  auto gcm = crypto::GcmContext::create(key_bytes);
  EXPECT_TRUE(gcm.is_ok());

  const std::size_t esp_payload = packet::kEspHeaderSize +
                                  IpsecEndpoint::kGcmIvSize +
                                  plaintext.size() +
                                  IpsecEndpoint::kGcmIcvSize;
  const std::size_t esp_off =
      packet::kEthernetHeaderSize + packet::kIpv4MinHeaderSize;
  packet::PacketBuffer frame;
  auto buf = frame.push_back(esp_off + esp_payload);

  packet::EthernetHeader eth{.dst = packet::MacAddress::from_id(0xE1),
                             .src = packet::MacAddress::from_id(0xE0),
                             .ether_type = packet::kEtherTypeIpv4,
                             .vlan = std::nullopt};
  packet::write_ethernet(eth, buf.subspan(0, packet::kEthernetHeaderSize));
  packet::Ipv4Header ip;
  ip.protocol = packet::kIpProtoEsp;
  ip.src = *packet::Ipv4Address::parse("198.51.100.1");
  ip.dst = *packet::Ipv4Address::parse("198.51.100.2");
  ip.total_length =
      static_cast<std::uint16_t>(packet::kIpv4MinHeaderSize + esp_payload);
  packet::write_ipv4(ip, buf.subspan(packet::kEthernetHeaderSize,
                                     packet::kIpv4MinHeaderSize));
  packet::EspHeader esp{spi, static_cast<std::uint32_t>(seq)};
  packet::write_esp(esp, buf.subspan(esp_off, packet::kEspHeaderSize));
  util::store_be64(buf.data() + esp_off + packet::kEspHeaderSize, seq);

  // Nonce/AAD exactly as the endpoint derives them (32-hex key => zero
  // salt; non-ESN AAD = SPI || seq-lo).
  std::uint8_t nonce[crypto::GcmContext::kIvSize];
  util::store_be32(nonce, spi);
  util::store_be64(nonce + 4, seq);
  std::uint8_t aad[8];
  util::store_be32(aad, spi);
  util::store_be32(aad + 4, static_cast<std::uint32_t>(seq));

  const std::size_t ct_off =
      esp_off + packet::kEspHeaderSize + IpsecEndpoint::kGcmIvSize;
  EXPECT_TRUE(gcm->seal(nonce, aad, plaintext, buf.data() + ct_off,
                        buf.data() + ct_off + plaintext.size())
                  .is_ok());
  return frame;
}

TEST(IpsecLifecycle, ForgedTrailersFailClosedAsCountedMalformed) {
  IpsecEndpoint responder = make_endpoint(responder_config());

  // pad_length exceeding the decrypted payload: must not underflow.
  std::vector<std::uint8_t> oversized_pad = {0xAA, 0xBB, 250, 4};
  EXPECT_TRUE(responder
                  .process(kDefaultContext, 1, 0,
                           forge_gcm_esp(1001, 1, oversized_pad))
                  .empty());
  EXPECT_EQ(responder.stats().malformed, 1u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);  // tag was genuine

  // Non-monotonic pad content (RFC 4303 §2.4 wants 1,2,3,...).
  std::vector<std::uint8_t> bad_pad = {0xAA, 0xBB, 9, 9, 2, 4};
  EXPECT_TRUE(responder
                  .process(kDefaultContext, 1, 0,
                           forge_gcm_esp(1001, 2, bad_pad))
                  .empty());
  EXPECT_EQ(responder.stats().malformed, 2u);

  // Unknown next_header fails the same closed way.
  std::vector<std::uint8_t> bad_nh = {0xAA, 0xBB, 0, 41};
  EXPECT_TRUE(responder
                  .process(kDefaultContext, 1, 0,
                           forge_gcm_esp(1001, 3, bad_nh))
                  .empty());
  EXPECT_EQ(responder.stats().malformed, 3u);
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->malformed, 3u);
  // None of the failures mutated the replay window (trailer checks run
  // after the window update, so the window holds 1..3 — but no inner
  // frame ever escaped).
  EXPECT_EQ(responder.stats().decapsulated, 0u);
}

TEST(IpsecLifecycle, DescribeStatsReportsLifecycle) {
  NfConfig init = initiator_config();
  init["life_soft_packets"] = "2";
  IpsecEndpoint endpoint = make_endpoint(init);
  ASSERT_TRUE(
      endpoint.configure(kDefaultContext, initiator_rekey()).is_ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        endpoint.process(kDefaultContext, 0, 0, plaintext_frame(64, i))
            .size(),
        1u);
  }
  json::Value doc = endpoint.describe_stats(kDefaultContext);
  ASSERT_TRUE(doc.is_object());
  const json::Object& obj = doc.as_object();
  ASSERT_TRUE(obj.contains("endpoint"));
  EXPECT_EQ(obj.find("endpoint")->as_object().find("rekeys_completed")
                ->as_number(),
            1.0);
  ASSERT_TRUE(obj.contains("tunnel"));
  const json::Object& tunnel = obj.find("tunnel")->as_object();
  EXPECT_EQ(tunnel.find("out_sa")->as_object().find("spi")->as_number(),
            1003.0);
  ASSERT_TRUE(tunnel.contains("draining"));
  EXPECT_EQ(tunnel.find("draining")
                ->as_object()
                .find("sa")
                ->as_object()
                .find("state")
                ->as_string(),
            "draining");
}

}  // namespace
}  // namespace nnfv::nnf
