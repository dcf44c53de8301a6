// Experiment T1 — reproduces **Table 1** of the paper:
//
//   "Results with IPSec client VNFs"
//   Platform    Through.   RAM       Image size
//   KVM/QEMU    796 Mbps   390.6 MB  522 MB
//   Docker      1095 Mbps  24.2 MB   240 MB
//   Native NF   1094 Mbps  19.4 MB   5 MB
//
// Method (mirrors §3): deploy the Strongswan-like ESP tunnel endpoint as a
// VM, a Docker container and a native NF on the same CPE node model;
// saturate it with 1408-byte UDP datagrams (iPerf-style) and report the
// maximum goodput, the runtime RAM reserved for the deployment, and the
// size of the image the flavor required.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_backend.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "crypto/backend.hpp"
#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "util/cpuid.hpp"
#include "util/rng.hpp"

namespace {

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench main

struct Row {
  const char* platform;
  virt::BackendKind backend;
  double paper_mbps;
  double paper_ram_mb;
  double paper_image_mb;
};

constexpr Row kRows[] = {
    {"KVM/QEMU", virt::BackendKind::kVm, 796.0, 390.6, 522.0},
    {"Docker", virt::BackendKind::kDocker, 1095.0, 24.2, 240.0},
    {"Native NF", virt::BackendKind::kNative, 1094.0, 19.4, 5.0},
};

/// The cbc-hmac transform's crypto work on one ESP payload: raw CBC on
/// `backend` into the preallocated `out`, then HMAC-SHA256 over it on the
/// active backend.
void cbc_hmac(const nnfv::crypto::CryptoBackend& backend,
              const nnfv::crypto::Aes& aes, const std::vector<std::uint8_t>& iv,
              const std::vector<std::uint8_t>& data,
              const std::vector<std::uint8_t>& auth_key,
              std::vector<std::uint8_t>& out) {
  backend.cbc_encrypt(aes, iv.data(), data.data(), out.data(), data.size());
  nnfv::bench::do_not_optimize(nnfv::crypto::HmacSha256::mac(auth_key, out));
}

/// Host-clock ESP crypto cost (AES-128-CBC + HMAC-SHA256 over a 1408-byte
/// datagram), active backend vs the byte-wise reference backend (the
/// seed's textbook AES). This is the "honest competition" check: the
/// native row's functional datapath must not be handicapped by slow
/// crypto.
double host_crypto_speedup(nnfv::bench::JsonReport& report) {
  using namespace nnfv;
  util::Rng rng(11);
  const auto key = rng.bytes(16);
  const auto auth_key = rng.bytes(32);
  const auto iv = rng.bytes(16);
  const auto data = rng.bytes(1408);  // already a multiple of the block size
  auto aes = crypto::Aes::create(key);
  const crypto::CryptoBackend& active = crypto::active_backend();
  const crypto::CryptoBackend& reference = crypto::detail::reference_backend();
  std::vector<std::uint8_t> out(data.size());
  std::vector<std::uint8_t> ref_out(data.size());

  active.cbc_encrypt(*aes, iv.data(), data.data(), out.data(), data.size());
  reference.cbc_encrypt(*aes, iv.data(), data.data(), ref_out.data(),
                        data.size());
  if (out != ref_out) {
    std::fprintf(stderr, "active/reference AES-CBC mismatch!\n");
    return -1.0;
  }

  auto [ns_new, iters_new] = bench::measure_ns(
      [&]() { cbc_hmac(active, *aes, iv, data, auth_key, out); });
  auto [ns_ref, iters_ref] = bench::measure_ns(
      [&]() { cbc_hmac(reference, *aes, iv, data, auth_key, out); });
  const double speedup = ns_new > 0.0 ? ns_ref / ns_new : 0.0;

  std::printf("\nHost crypto (ESP AES-CBC+HMAC, 1408 B): %.0f ns now vs "
              "%.0f ns seed AES -> %.1fx\n", ns_new, ns_ref, speedup);
  auto& now = report.add("esp_crypto_1408", iters_new, ns_new);
  now.extra.emplace_back("mbit_per_sec", data.size() * 8.0 / ns_new * 1e3);
  auto& ref = report.add("esp_crypto_1408_seed_ref", iters_ref, ns_ref);
  ref.extra.emplace_back("mbit_per_sec", data.size() * 8.0 / ns_ref * 1e3);
  report.add_metric("esp_crypto_speedup_vs_seed", "speedup", speedup);
  return speedup;
}

/// Active backend vs the forced T-table portable backend on the same ESP
/// kernel. The acceptance gate: when a hardware backend is selected it
/// must be >= 2x the portable baseline; when the portable backend is the
/// active one there is nothing to gate (returns success).
double backend_speedup_vs_portable(nnfv::bench::JsonReport& report) {
  using namespace nnfv;
  util::Rng rng(12);
  const auto key = rng.bytes(16);
  const auto auth_key = rng.bytes(32);
  const auto iv = rng.bytes(16);
  const auto data = rng.bytes(1408);
  auto aes = crypto::Aes::create(key);
  std::vector<std::uint8_t> out(data.size());

  // Reads active_backend() per call: report_backend_speedup re-runs the
  // kernel under a forced-portable override.
  const auto esp_kernel = [&]() {
    cbc_hmac(crypto::active_backend(), *aes, iv, data, auth_key, out);
  };
  return bench::report_backend_speedup(
      report, "esp_crypto_1408_portable_baseline", esp_kernel);
}

struct GcmSpeedups {
  double vs_cbc = 0.0;       ///< GCM seal vs CBC+HMAC, active backend
  double vs_portable = 0.0;  ///< GCM seal, active backend vs portable
  double vs_split = 0.0;     ///< fused gcm_crypt seal vs PR 4 split passes
};

/// Differential guard for the stitched kernel: the fused seal must be
/// bit-identical to the reference oracle's split two-pass at lengths
/// straddling both the 8-block (128 B) CTR chunk and the 4-block (64 B)
/// GHASH aggregation, including their tails and partial final blocks.
bool fused_seal_matches_reference_oracle() {
  util::Rng rng(14);
  const auto key = rng.bytes(16);
  const auto aad = rng.bytes(8);
  for (std::size_t len : {1u, 15u, 16u, 17u, 63u, 64u, 65u, 79u, 80u, 127u,
                          128u, 129u, 143u, 144u, 191u, 192u, 1408u, 1419u}) {
    const auto nonce = rng.bytes(12);
    const auto plain = rng.bytes(len);
    std::vector<std::uint8_t> want_ct(len);
    std::uint8_t want_tag[crypto::GcmContext::kTagSize];
    {
      crypto::ScopedBackendOverride oracle(
          crypto::detail::reference_backend());
      auto gcm = crypto::GcmContext::create(key);
      if (!gcm.is_ok() ||
          !gcm->seal(nonce, aad, plain, want_ct.data(), want_tag).is_ok()) {
        return false;
      }
    }
    auto gcm = crypto::GcmContext::create(key);
    std::vector<std::uint8_t> got_ct(len);
    std::uint8_t got_tag[crypto::GcmContext::kTagSize];
    if (!gcm.is_ok() ||
        !gcm->seal(nonce, aad, plain, got_ct.data(), got_tag).is_ok() ||
        got_ct != want_ct ||
        std::memcmp(got_tag, want_tag, sizeof(want_tag)) != 0) {
      std::fprintf(stderr,
                   "fused GCM seal diverges from the reference oracle at "
                   "length %zu!\n", len);
      return false;
    }
  }
  return true;
}

/// Differential guard for the multi-buffer kernel: seal_mb over 1..8
/// ragged lanes must be bit-identical to the reference oracle's per-lane
/// seal, and open_mb must round-trip every lane. Lane lengths straddle
/// the 128 B CTR chunk and the 8-block GHASH aggregation so the batched
/// scheduler's drain paths are all exercised before any timing runs.
bool mb_seal_matches_reference_oracle() {
  constexpr std::size_t kMaxLanes = crypto::CryptoBackend::kMaxMbLanes;
  constexpr std::size_t kLaneLens[kMaxLanes] = {1,   64,  65,  127,
                                                128, 129, 576, 1408};
  util::Rng rng(15);
  const auto key = rng.bytes(16);
  std::vector<std::vector<std::size_t>> cases;
  for (std::size_t nlanes = 1; nlanes <= kMaxLanes; ++nlanes) {
    std::vector<std::size_t> lens(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) {
      lens[l] = kLaneLens[(l * 3 + nlanes) % kMaxLanes];
    }
    cases.push_back(std::move(lens));
  }
  // Full equal-length batches: the shape the burst gather produces and
  // the curve above times. Below 128 B they hit the register-resident
  // uniform kernel (including its partial-tail epilogue at 96/127);
  // 128/256 B run the cross-lane chunk pipeline with zero remainder.
  for (const std::size_t len : {32U, 64U, 96U, 127U, 128U, 256U}) {
    cases.emplace_back(kMaxLanes, static_cast<std::size_t>(len));
  }
  for (const auto& lens : cases) {
    const std::size_t nlanes = lens.size();
    std::vector<std::vector<std::uint8_t>> nonce(nlanes), aad(nlanes),
        plain(nlanes), want_ct(nlanes), got_ct(nlanes), got_plain(nlanes);
    std::vector<std::array<std::uint8_t, crypto::GcmContext::kTagSize>>
        want_tag(nlanes), got_tag(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) {
      const std::size_t len = lens[l];
      nonce[l] = rng.bytes(12);
      aad[l] = rng.bytes(8);
      plain[l] = rng.bytes(len);
      want_ct[l].resize(len);
      got_ct[l].resize(len);
      got_plain[l].resize(len);
    }
    {
      crypto::ScopedBackendOverride oracle(
          crypto::detail::reference_backend());
      auto gcm = crypto::GcmContext::create(key);
      if (!gcm.is_ok()) return false;
      for (std::size_t l = 0; l < nlanes; ++l) {
        if (!gcm->seal(nonce[l], aad[l], plain[l], want_ct[l].data(),
                       want_tag[l].data())
                 .is_ok()) {
          return false;
        }
      }
    }
    auto gcm = crypto::GcmContext::create(key);
    if (!gcm.is_ok()) return false;
    std::vector<crypto::GcmMbOp> ops(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) {
      ops[l] = {nonce[l], aad[l], plain[l], got_ct[l].data(),
                got_tag[l].data()};
    }
    if (!gcm->seal_mb(ops.data(), nlanes).is_ok()) return false;
    for (std::size_t l = 0; l < nlanes; ++l) {
      if (got_ct[l] != want_ct[l] ||
          std::memcmp(got_tag[l].data(), want_tag[l].data(),
                      want_tag[l].size()) != 0) {
        std::fprintf(stderr,
                     "multi-buffer GCM seal diverges from the reference "
                     "oracle (lanes=%zu lane=%zu len=%zu)!\n",
                     nlanes, l, plain[l].size());
        return false;
      }
      ops[l] = {nonce[l], aad[l], got_ct[l], got_plain[l].data(),
                got_tag[l].data()};
    }
    std::vector<std::uint8_t> ok(nlanes, 0);
    if (!gcm->open_mb(ops.data(), nlanes,
                      reinterpret_cast<bool*>(ok.data())) ||
        !std::all_of(ok.begin(), ok.end(), [](std::uint8_t o) { return o; })) {
      std::fprintf(stderr, "multi-buffer GCM open rejects its own seal "
                           "(lanes=%zu)!\n", nlanes);
      return false;
    }
    for (std::size_t l = 0; l < nlanes; ++l) {
      if (got_plain[l] != plain[l]) {
        std::fprintf(stderr, "multi-buffer GCM open round-trip mismatch "
                             "(lanes=%zu lane=%zu)!\n", nlanes, l);
        return false;
      }
    }
  }
  return true;
}

constexpr std::size_t kMbCurveSizes[] = {64, 128, 256, 576, 1408};

struct MbSpeedups {
  /// seal_mb over 8 same-size lanes vs 8 per-packet seal() calls, one
  /// ratio per kMbCurveSizes entry.
  double vs_single[std::size(kMbCurveSizes)] = {};
};

/// The multi-buffer payoff curve: small packets amortise the per-call
/// GHASH/CTR ramp-in across lanes (where Table 1's 64 B IMIX tail
/// lives), large packets converge toward the single-buffer kernel's
/// steady-state throughput.
MbSpeedups mb_crypto_speedups(nnfv::bench::JsonReport& report) {
  constexpr std::size_t kLanes = crypto::CryptoBackend::kMaxMbLanes;
  util::Rng rng(16);
  const auto key = rng.bytes(16);
  auto gcm = crypto::GcmContext::create(key);
  MbSpeedups speedups;
  std::printf("\nMulti-buffer GCM seal (%zu lanes) vs per-packet seal:\n",
              kLanes);
  for (std::size_t si = 0; si < std::size(kMbCurveSizes); ++si) {
    const std::size_t size = kMbCurveSizes[si];
    std::vector<std::vector<std::uint8_t>> nonce(kLanes), aad(kLanes),
        plain(kLanes), cipher(kLanes);
    std::vector<crypto::GcmMbOp> ops(kLanes);
    std::uint8_t tags[kLanes][crypto::GcmContext::kTagSize];
    for (std::size_t l = 0; l < kLanes; ++l) {
      nonce[l] = rng.bytes(12);
      aad[l] = rng.bytes(8);
      plain[l] = rng.bytes(size);
      cipher[l].resize(size);
      ops[l] = {nonce[l], aad[l], plain[l], cipher[l].data(), tags[l]};
    }
    // The two sides of the ratio are measured back-to-back inside each
    // trial and the ratio is taken per trial; the median trial wins. A
    // noise burst that lands on one whole trial shifts both sides
    // together and cancels in the ratio — independent windows per side
    // cannot guarantee that on shared hardware, and this ratio carries
    // a hard gate below.
    struct Trial {
      double ns_single;
      double ns_mb;
      std::uint64_t iters_mb;
    };
    const int ntrials = bench::smoke_mode() ? 1 : 3;
    Trial trials[3];
    for (int t = 0; t < ntrials; ++t) {
      auto [ns_s, it_s] = bench::measure_ns([&]() {
        for (std::size_t l = 0; l < kLanes; ++l) {
          (void)gcm->seal(nonce[l], aad[l], plain[l], cipher[l].data(),
                          tags[l]);
        }
        bench::do_not_optimize(tags);
      });
      (void)it_s;
      auto [ns_m, it_m] = bench::measure_ns([&]() {
        (void)gcm->seal_mb(ops.data(), kLanes);
        bench::do_not_optimize(tags);
      });
      trials[t] = {ns_s, ns_m, it_m};
    }
    std::sort(trials, trials + ntrials,
              [](const Trial& a, const Trial& b) {
                return a.ns_single / a.ns_mb < b.ns_single / b.ns_mb;
              });
    const double ns_single = trials[ntrials / 2].ns_single;
    const double ns_mb = trials[ntrials / 2].ns_mb;
    const std::uint64_t iters_mb = trials[ntrials / 2].iters_mb;
    speedups.vs_single[si] = ns_mb > 0.0 ? ns_single / ns_mb : 0.0;
    std::printf("  %4zu B x %zu: mb %.0f ns vs single %.0f ns -> %.2fx\n",
                size, kLanes, ns_mb, ns_single, speedups.vs_single[si]);
    auto& row = report.add(
        "esp_gcm_mb_seal8_" + std::to_string(size), iters_mb, ns_mb);
    row.extra.emplace_back("single_ns_per_batch", ns_single);
    row.extra.emplace_back(
        "mbit_per_sec",
        static_cast<double>(size) * kLanes * 8.0 / ns_mb * 1e3);
    report.add_metric("mb_speedup_vs_single_" + std::to_string(size),
                      "speedup", speedups.vs_single[si]);
  }
  return speedups;
}

/// The two ESP encrypt transforms head to head on the active backend —
/// AES-GCM seal (one pass: CTR + GHASH) vs AES-CBC + HMAC-SHA256 (serial
/// chain + separate MAC pass) over the same 1408-byte datagram — plus the
/// GCM kernel's own active-vs-portable comparison. Both transforms are
/// always measured so one JSON run captures cbc and gcm side by side.
GcmSpeedups gcm_crypto_speedups(nnfv::bench::JsonReport& report) {
  using namespace nnfv;
  util::Rng rng(13);
  const auto key = rng.bytes(16);
  const auto auth_key = rng.bytes(32);
  const auto iv = rng.bytes(16);
  const auto nonce = rng.bytes(12);
  const auto aad = rng.bytes(8);  // ESP header-sized
  const auto data = rng.bytes(1408);
  auto aes = crypto::Aes::create(key);
  auto gcm = crypto::GcmContext::create(key);
  std::vector<std::uint8_t> cipher(data.size());
  std::uint8_t tag[crypto::GcmContext::kTagSize];

  std::vector<std::uint8_t> cbc_out(data.size());
  auto [ns_cbc, iters_cbc] = bench::measure_ns([&]() {
    cbc_hmac(crypto::active_backend(), *aes, iv, data, auth_key, cbc_out);
  });
  (void)iters_cbc;
  const auto gcm_kernel = [&]() {
    (void)gcm->seal(nonce, aad, data, cipher.data(), tag);
    bench::do_not_optimize(tag);
  };
  auto [ns_gcm, iters_gcm] = bench::measure_ns(gcm_kernel);

  GcmSpeedups speedups;
  speedups.vs_cbc = ns_gcm > 0.0 ? ns_cbc / ns_gcm : 0.0;
  std::printf("ESP encrypt 1408 B: gcm %.0f ns vs cbc-hmac %.0f ns -> "
              "%.1fx\n", ns_gcm, ns_cbc, speedups.vs_cbc);
  auto& row = report.add("esp_gcm_encrypt_1408", iters_gcm, ns_gcm);
  row.extra.emplace_back("mbit_per_sec", data.size() * 8.0 / ns_gcm * 1e3);
  report.add_metric("esp_gcm_vs_cbc_speedup", "speedup", speedups.vs_cbc);

  // The PR 4 split-pass seal (aes_ctr_xor, then ghash over AAD +
  // ciphertext + lengths) as the yardstick for the stitched gcm_crypt:
  // same primitives, same backend, two walks over the payload.
  crypto::GhashKey hkey;
  const std::uint8_t zero[16] = {};
  (*aes).encrypt_block(zero, hkey.h);
  crypto::active_backend().ghash_init(hkey);
  const auto split_kernel = [&]() {
    bench::gcm_split_seal(*aes, hkey, nonce, aad, data, cipher.data(), tag);
    bench::do_not_optimize(tag);
  };
  auto [ns_split, iters_split] = bench::measure_ns(split_kernel);
  auto& split_row =
      report.add("esp_gcm_encrypt_1408_split", iters_split, ns_split);
  split_row.extra.emplace_back("fused_ns_per_op", ns_gcm);
  speedups.vs_split = ns_gcm > 0.0 ? ns_split / ns_gcm : 0.0;
  std::printf("ESP GCM seal 1408 B: fused %.0f ns vs split passes %.0f ns "
              "-> %.2fx\n", ns_gcm, ns_split, speedups.vs_split);
  report.add_metric("gcm_stitch_speedup_vs_split", "speedup",
                    speedups.vs_split);

  speedups.vs_portable = bench::report_backend_speedup(
      report, "esp_gcm_1408_portable_baseline", gcm_kernel,
      "gcm_backend_speedup_vs_portable");
  return speedups;
}

}  // namespace

int main(int argc, char** argv) {
  nnfv::bench::parse_cli(argc, argv);
  // --mode selects how the Table-1 graphs deploy and are driven (the
  // crypto kernel comparisons below always measure every transform):
  // gcm / cbc pick the ESP transform with frame-at-a-time ingress; mb
  // deploys the gcm transform and feeds 8-frame RX bursts, so the
  // endpoint gathers same-SA frames into multi-buffer GCM lanes.
  const std::string mode =
      nnfv::bench::mode().empty() ? "gcm" : nnfv::bench::mode();
  if (mode != "gcm" && mode != "cbc" && mode != "mb") {
    std::fprintf(stderr, "unknown --mode=%s (want gcm, cbc or mb)\n",
                 mode.c_str());
    return 2;
  }
  const std::string esp_transform = mode == "cbc" ? "cbc-hmac" : "gcm";
  const std::size_t burst_width =
      mode == "mb" ? crypto::CryptoBackend::kMaxMbLanes : 1;
  nnfv::bench::JsonReport json_report("bench_table1_ipsec");
  json_report.set_field("backend",
                        std::string(crypto::active_backend().name()));
  json_report.set_field("cpu_features", util::cpu_feature_string());
  json_report.set_field("mode", mode);
  std::printf(
      "=== Table 1: Results with IPSec client VNFs "
      "(paper vs this reproduction) ===\n");
  std::printf("workload: saturating UDP, 1408 B datagrams, ESP tunnel mode "
              "(%s), %s ingress, 1-core CPE model\n\n", esp_transform.c_str(),
              burst_width > 1 ? "8-frame burst" : "frame-at-a-time");
  std::printf("%-10s | %13s %13s | %11s %11s | %11s %11s\n", "Platform",
              "Thr (paper)", "Thr (ours)", "RAM (paper)", "RAM (ours)",
              "Img (paper)", "Img (ours)");
  std::printf("-----------+----------------------------+------------------"
              "-------+-------------------------\n");

  double allocs_per_packet = 0.0;  // worst row; must be 0 in steady state
  for (const Row& row : kRows) {
    core::UniversalNode node;
    auto report = node.orchestrator().deploy(
        bench::ipsec_cpe_graph("t1", row.backend, esp_transform));
    if (!report) {
      std::printf("%-10s | deploy failed: %s\n", row.platform,
                  report.status().to_string().c_str());
      return 1;
    }
    const auto& placement = report->placements.at(0);

    // Smoke: a few hundred simulated packets still exercise deploy +
    // datapath + JSON plumbing; full runs saturate for a simulated second.
    auto result = bench::smoke_mode()
                      ? bench::measure_saturation(node, 1408, 20000.0,
                                                  10 * sim::kMillisecond,
                                                  50 * sim::kMillisecond,
                                                  burst_width)
                      : bench::measure_saturation(node, 1408, 150000.0,
                                                  100 * sim::kMillisecond,
                                                  sim::kSecond, burst_width);
    std::printf("%-10s | %8.0f Mbps %8.1f Mbps | %8.1f MB %8.1f MB | "
                "%8.0f MB %8.1f MB\n",
                row.platform, row.paper_mbps, result.goodput_mbps,
                row.paper_ram_mb,
                static_cast<double>(placement.ram_bytes) / (1024.0 * 1024.0),
                row.paper_image_mb,
                static_cast<double>(placement.image_bytes) /
                    (1024.0 * 1024.0));
    auto& json_row = json_report.add_metric(
        std::string("table1_") + row.platform, "goodput_mbps",
        result.goodput_mbps);
    json_row.extra.emplace_back("paper_mbps", row.paper_mbps);
    json_row.extra.emplace_back(
        "ram_mb", static_cast<double>(placement.ram_bytes) / (1024.0 * 1024.0));
    json_row.extra.emplace_back(
        "image_mb",
        static_cast<double>(placement.image_bytes) / (1024.0 * 1024.0));
    allocs_per_packet = std::max(allocs_per_packet, result.allocs_per_packet);
  }
  // Zero-copy acceptance: once warm, ESP forwarding must not touch the
  // system allocator — encap/decap are offset adjustments inside one
  // pooled mbuf segment. Ceiling-gated at 0 via bench/baseline.json too.
  json_report.add_metric("allocs_per_packet", "allocs_per_packet",
                         allocs_per_packet);

  // Correctness before timing: the stitched seal and the multi-buffer
  // batch scheduler must both match the oracle (cheap, so they run in
  // every mode including smoke) — on divergence the bench refuses to
  // emit numbers at all.
  if (!fused_seal_matches_reference_oracle()) return 1;
  if (!mb_seal_matches_reference_oracle()) return 1;

  const double crypto_speedup = host_crypto_speedup(json_report);
  const double hw_speedup = backend_speedup_vs_portable(json_report);
  const GcmSpeedups gcm_speedups = gcm_crypto_speedups(json_report);
  const MbSpeedups mb_speedups = mb_crypto_speedups(json_report);
  // The >=2x gate only applies with FULL hardware crypto: the ESP kernel
  // is AES + HMAC-SHA256, and on CPUs with AES-NI but no SHA-NI the aesni
  // backend deliberately keeps portable SHA-256 — accelerating half the
  // kernel legitimately lands below 2x.
  const bool hw_active = crypto::active_backend().name() != "portable" &&
                         crypto::active_backend().name() != "reference";
  const bool hw_gated = hw_active && util::cpu_features().sha_ni;
  // The GCM gates likewise need the whole kernel in hardware: without
  // PCLMULQDQ the GHASH half falls back to the 4-bit table.
  const bool gcm_gated = hw_active && util::cpu_features().pclmul;

  std::printf("\nShape checks (the claims under test):\n");
  std::printf("  * VM throughput ~0.73x of native (user-space packet path"
              " + hypervisor exits)\n");
  std::printf("  * Docker ~= native throughput (both use the host kernel"
              " path)\n");
  std::printf("  * RAM: VM >> Docker > native; image: VM >> Docker >> native"
              " (~100x)\n");
  std::printf("  * ESP crypto >= 2x the seed implementation (got %.1fx)\n",
              crypto_speedup);
  std::printf("  * zero pool heap events per packet in steady state "
              "(got %.4f/pkt)\n", allocs_per_packet);
  if (hw_gated) {
    std::printf("  * accelerated backend >= 2x the T-table portable baseline"
                " (got %.1fx)\n", hw_speedup);
  } else if (hw_active) {
    std::printf("  * partial hardware crypto (AES-NI without SHA-NI); "
                "backend speedup %.1fx reported but not gated\n", hw_speedup);
  } else {
    std::printf("  * no hardware crypto backend on this CPU; portable-vs-"
                "portable not gated\n");
  }
  if (gcm_gated) {
    std::printf("  * ESP GCM encrypt >= 3x cbc-hmac on the accelerated "
                "backend (got %.1fx)\n", gcm_speedups.vs_cbc);
    std::printf("  * accelerated GCM >= 2x the portable GCM baseline "
                "(got %.1fx)\n", gcm_speedups.vs_portable);
    std::printf("  * stitched GCM seal >= 1.3x the split-pass kernel "
                "(got %.2fx)\n", gcm_speedups.vs_split);
    std::printf("  * 8-lane multi-buffer seal >= 1.5x per-packet seal at "
                "64 B, monotone floors above (got %.2fx / %.2fx / %.2fx at "
                "64/128/256 B)\n",
                mb_speedups.vs_single[0], mb_speedups.vs_single[1],
                mb_speedups.vs_single[2]);
  } else {
    std::printf("  * GCM-vs-cbc %.1fx, GCM backend speedup %.1fx, "
                "stitch-vs-split %.2fx and mb-vs-single %.2fx/%.2fx/%.2fx "
                "reported but not gated (no AES-NI+PCLMUL)\n",
                gcm_speedups.vs_cbc, gcm_speedups.vs_portable,
                gcm_speedups.vs_split, mb_speedups.vs_single[0],
                mb_speedups.vs_single[1], mb_speedups.vs_single[2]);
  }
  std::printf("\n");
  json_report.emit();
  if (!nnfv::bench::gates_enabled()) return 0;  // smoke / unoptimised build
  if (allocs_per_packet > 0.0) return 1;
  if (crypto_speedup < 2.0) return 1;
  if (hw_gated && hw_speedup < 2.0) return 1;
  if (gcm_gated && gcm_speedups.vs_cbc < 3.0) return 1;
  if (gcm_gated && gcm_speedups.vs_portable < 2.0) return 1;
  if (gcm_gated && gcm_speedups.vs_split < 1.3) return 1;
  // The multi-buffer payoff gates. At 64 B the whole packet is per-call
  // overhead (AES/GHASH ramp, AAD + lengths round trips, J0, tag), so
  // batching 8 lanes must win outright: >= 1.5x. Above that the floor
  // steps down with packet size because the amortisable share shrinks —
  // by 256 B the stitched single-buffer kernel is already
  // throughput-bound (16 blocks in flight, aggregated GHASH), the
  // per-packet overhead is ~30% of packet cost, and even a zero-cost
  // batch tops out near 1.4x; measured steady state on VAES hardware is
  // ~1.2x at 256 B and ~1.25-1.4x at 128 B. The floors below assert the
  // batch path never loses money at any curve point, and the full
  // measured ratios are trend-gated against the blessed baseline. The
  // 576/1408 B points carry no absolute floor — large packets
  // legitimately converge toward the single-buffer steady state.
  if (gcm_gated && mb_speedups.vs_single[0] < 1.5) return 1;   // 64 B
  if (gcm_gated && mb_speedups.vs_single[1] < 1.15) return 1;  // 128 B
  if (gcm_gated && mb_speedups.vs_single[2] < 1.0) return 1;   // 256 B
  return 0;
}
