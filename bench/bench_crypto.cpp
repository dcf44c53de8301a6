// Experiment A4 — crypto datapath micro-benchmarks (host wall-clock).
//
// These numbers do NOT feed the Table 1 reproduction (simulated timing
// comes from virt::CostModel); they document the functional datapath's
// host cost: AES-128-CBC (active backend vs the byte-wise reference backend),
// HMAC-SHA256, SHA-256, and a full ESP tunnel encap+decap round trip on
// MTU-sized packets. Emits the JSON result block (see bench_json.hpp).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_backend.hpp"
#include "bench_json.hpp"
#include "crypto/backend.hpp"
#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "util/cpuid.hpp"
#include "util/rng.hpp"

namespace {

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench

void report_bytes(bench::JsonReport& report, const char* name,
                  std::size_t bytes, double ns, std::uint64_t iters) {
  const double mbps = bytes * 8.0 / ns * 1e3;  // bits/ns -> Mbit/s
  std::printf("%-32s %10.1f ns/op %10.1f MB/s\n", name, ns,
              bytes / ns * 1e3);
  auto& result = report.add(name, iters, ns);
  result.extra.emplace_back("bytes", static_cast<double>(bytes));
  result.extra.emplace_back("mbit_per_sec", mbps);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_cli(argc, argv);
  bench::JsonReport report("bench_crypto");
  report.set_field("backend", std::string(crypto::active_backend().name()));
  report.set_field("cpu_features", util::cpu_feature_string());
  util::Rng rng(1);
  std::printf("=== A4: crypto datapath micro-benchmarks (backend: %s) ===\n\n",
              std::string(crypto::active_backend().name()).c_str());

  // SHA-256 / HMAC-SHA256.
  for (std::size_t n : {64u, 1450u}) {
    const auto data = rng.bytes(n);
    auto [ns, iters] = bench::measure_ns(
        [&]() { bench::do_not_optimize(crypto::Sha256::digest(data)); });
    char name[48];
    std::snprintf(name, sizeof(name), "sha256_%zu", n);
    report_bytes(report, name, n, ns, iters);
  }
  {
    const auto key = rng.bytes(32);
    const auto data = rng.bytes(1450);
    auto [ns, iters] = bench::measure_ns([&]() {
      bench::do_not_optimize(crypto::HmacSha256::mac(key, data));
    });
    report_bytes(report, "hmac_sha256_1450", 1450, ns, iters);
  }

  // AES-128-CBC: the active backend vs the byte-wise reference backend
  // (the seed's textbook AES). Both sides write into one preallocated
  // buffer, so the ratio times cipher work only.
  {
    const auto key = rng.bytes(16);
    const auto iv = rng.bytes(16);
    const auto data = rng.bytes(1440);  // multiple of the block size
    auto aes = crypto::Aes::create(key);
    const crypto::CryptoBackend& active = crypto::active_backend();
    const crypto::CryptoBackend& reference = crypto::detail::reference_backend();
    std::vector<std::uint8_t> out(data.size());
    std::vector<std::uint8_t> ref_out(data.size());

    // Functional guard: both implementations must agree.
    active.cbc_encrypt(*aes, iv.data(), data.data(), out.data(), data.size());
    reference.cbc_encrypt(*aes, iv.data(), data.data(), ref_out.data(),
                          data.size());
    if (out != ref_out) {
      std::fprintf(stderr, "active/reference AES-CBC mismatch!\n");
      return 1;
    }

    auto [ns_new, iters_new] = bench::measure_ns([&]() {
      active.cbc_encrypt(*aes, iv.data(), data.data(), out.data(),
                         data.size());
      bench::do_not_optimize(out);
    });
    auto [ns_ref, iters_ref] = bench::measure_ns([&]() {
      reference.cbc_encrypt(*aes, iv.data(), data.data(), out.data(),
                            data.size());
      bench::do_not_optimize(out);
    });
    report_bytes(report, "aes128_cbc_encrypt_1440", 1440, ns_new, iters_new);
    report_bytes(report, "aes128_cbc_encrypt_1440_ref", 1440, ns_ref,
                 iters_ref);
    std::printf("%-32s %9.1fx\n", "aes_cbc_speedup_vs_seed",
                ns_ref / ns_new);
    report.add_metric("aes_cbc_speedup_vs_seed", "speedup", ns_ref / ns_new);

    active.cbc_encrypt(*aes, iv.data(), data.data(), ref_out.data(),
                       data.size());
    auto [ns_dec, iters_dec] = bench::measure_ns([&]() {
      active.cbc_decrypt(*aes, iv.data(), ref_out.data(), out.data(),
                         data.size());
      bench::do_not_optimize(out);
    });
    report_bytes(report, "aes128_cbc_decrypt_1440", 1440, ns_dec, iters_dec);
  }

  // AES-128-GCM (the RFC 4106 ESP default): seal/open on an MTU-sized
  // payload with ESP-header-sized AAD, the raw GHASH primitive, and the
  // cbc-vs-gcm encrypt comparison — one run's JSON carries both modes.
  {
    const auto key = rng.bytes(16);
    const auto nonce = rng.bytes(12);
    const auto aad = rng.bytes(8);
    const auto data = rng.bytes(1408);
    auto aes = crypto::Aes::create(key);
    auto gcm = crypto::GcmContext::create(key);
    std::vector<std::uint8_t> cipher(data.size());
    std::uint8_t tag[crypto::GcmContext::kTagSize];

    const auto seal_kernel = [&]() {
      (void)gcm->seal(nonce, aad, data, cipher.data(), tag);
      bench::do_not_optimize(tag);
    };
    auto [ns_seal, iters_seal] = bench::measure_ns(seal_kernel);
    report_bytes(report, "aes128_gcm_seal_1408", 1408, ns_seal, iters_seal);

    (void)gcm->seal(nonce, aad, data, cipher.data(), tag);
    std::vector<std::uint8_t> plain(cipher.size());
    auto [ns_open, iters_open] = bench::measure_ns([&]() {
      bench::do_not_optimize(
          gcm->open(nonce, aad, cipher, {tag, sizeof(tag)}, plain.data()));
    });
    report_bytes(report, "aes128_gcm_open_1408", 1408, ns_open, iters_open);

    // Raw GHASH over the same payload (88 blocks), isolating the
    // PCLMUL / 4-bit-table half of the transform from the CTR half.
    crypto::GhashKey hkey;
    {
      const std::uint8_t zero[16] = {};
      (*aes).encrypt_block(zero, hkey.h);  // H = AES_K(0), the real subkey
      crypto::active_backend().ghash_init(hkey);
      std::uint8_t state[16] = {};
      auto [ns_gh, iters_gh] = bench::measure_ns([&]() {
        crypto::active_backend().ghash(hkey, state, data.data(),
                                       data.size() / 16);
        bench::do_not_optimize(state);
      });
      report_bytes(report, "ghash_1408", 1408, ns_gh, iters_gh);
    }

    // The PR 4 split-pass seal: aes_ctr_xor over the payload, then ghash
    // over AAD + ciphertext + lengths as separate walks — exactly what
    // seal() did before the stitched gcm_crypt. Kept here as the
    // yardstick for the gcm_stitch_speedup_vs_split metric (and as a
    // correctness cross-check: it must produce the identical tag).
    std::uint8_t split_tag[crypto::GcmContext::kTagSize];
    const auto split_kernel = [&]() {
      bench::gcm_split_seal(*aes, hkey, nonce, aad, data, cipher.data(),
                            split_tag);
      bench::do_not_optimize(split_tag);
    };
    split_kernel();
    (void)gcm->seal(nonce, aad, data, cipher.data(), tag);
    if (std::memcmp(split_tag, tag, sizeof(tag)) != 0) {
      std::fprintf(stderr, "fused/split GCM tag mismatch!\n");
      return 1;
    }
    auto [ns_split, iters_split] = bench::measure_ns(split_kernel);
    report_bytes(report, "aes128_gcm_seal_1408_split", 1408, ns_split,
                 iters_split);
    const double stitch = ns_seal > 0.0 ? ns_split / ns_seal : 0.0;
    std::printf("%-32s %9.2fx\n", "gcm_stitch_speedup_vs_split", stitch);
    report.add_metric("gcm_stitch_speedup_vs_split", "speedup", stitch);

    bench::report_backend_speedup(report, "aes128_gcm_seal_1408_portable",
                                  seal_kernel,
                                  "gcm_backend_speedup_vs_portable");
  }

  // Full ESP tunnel encap+decap.
  {
    nnf::IpsecEndpoint initiator;
    nnf::IpsecEndpoint responder;
    const nnf::NfConfig init_config = {
        {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
        {"spi_out", "1001"},          {"spi_in", "2002"},
        {"enc_key", "000102030405060708090a0b0c0d0e0f"},
        {"auth_key",
         "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"}};
    nnf::NfConfig resp_config = init_config;
    resp_config["local_ip"] = "198.51.100.2";
    resp_config["peer_ip"] = "198.51.100.1";
    resp_config["spi_out"] = "2002";
    resp_config["spi_in"] = "1001";
    (void)initiator.configure(nnf::kDefaultContext, init_config);
    (void)responder.configure(nnf::kDefaultContext, resp_config);

    const auto payload = rng.bytes(1408);
    packet::UdpFrameSpec spec;
    spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
    spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
    spec.payload = payload;

    auto [ns, iters] = bench::measure_ns([&]() {
      auto enc = initiator.process(nnf::kDefaultContext, 0, 0,
                                   packet::build_udp_frame(spec));
      auto dec = responder.process(nnf::kDefaultContext, 1, 0,
                                   std::move(enc[0].frame));
      bench::do_not_optimize(dec);
    });
    report_bytes(report, "esp_encap_decap_1408", 1408, ns, iters);

    // Burst path: 32 frames per process_burst call (SA/tunnel resolution
    // amortised) vs 32 process() calls.
    constexpr std::size_t kBurst = 32;
    auto [ns_burst, iters_burst] = bench::measure_ns([&]() {
      packet::PacketBurst burst;
      burst.reserve(kBurst);
      for (std::size_t i = 0; i < kBurst; ++i) {
        burst.push_back(packet::build_udp_frame(spec));
      }
      auto enc = initiator.process_burst(nnf::kDefaultContext, 0, 0,
                                         std::move(burst));
      packet::PacketBurst black;
      black.reserve(enc.size());
      for (auto& out : enc) black.push_back(std::move(out.frame));
      auto dec = responder.process_burst(nnf::kDefaultContext, 1, 0,
                                         std::move(black));
      bench::do_not_optimize(dec);
    });
    const double ns_per_pkt = ns_burst / static_cast<double>(kBurst);
    report_bytes(report, "esp_encap_decap_1408_burst32", 1408, ns_per_pkt,
                 iters_burst * kBurst);
    std::printf("%-32s %9.2fx\n", "esp_burst_speedup_vs_single",
                ns_per_pkt > 0.0 ? ns / ns_per_pkt : 0.0);
    report.add_metric("esp_burst_speedup_vs_single", "speedup",
                      ns_per_pkt > 0.0 ? ns / ns_per_pkt : 0.0);
  }

  // Active backend vs forced-portable on the ESP crypto kernel: the
  // cross-backend observability that lets CI catch dispatch regressions.
  {
    const auto key = rng.bytes(16);
    const auto iv = rng.bytes(16);
    const auto data = rng.bytes(1408);
    auto aes = crypto::Aes::create(key);
    std::vector<std::uint8_t> out(data.size());
    bench::report_backend_speedup(
        report, "aes128_cbc_encrypt_1408_portable", [&]() {
          crypto::active_backend().cbc_encrypt(*aes, iv.data(), data.data(),
                                               out.data(), data.size());
          bench::do_not_optimize(out);
        });
  }

  std::printf("\n");
  report.emit();
  return 0;
}
