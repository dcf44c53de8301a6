#include "crypto/cipher_modes.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "crypto/backend.hpp"
#include "crypto/hmac.hpp"
#include "util/byteorder.hpp"

namespace nnfv::crypto {

using util::invalid_argument;

// ---------------------------------------------------------------------------
// AES-GCM
// ---------------------------------------------------------------------------

GcmContext::GcmContext(Aes aes) : aes_(aes) {
  // H = AES_K(0^128). The single-block T-table path is bit-identical
  // across backends, so the raw subkey can be derived here once; the
  // backend-specific table is filled lazily by hkey().
  const std::uint8_t zero[16] = {};
  aes_.encrypt_block(zero, hkey_.h);
}

util::Result<GcmContext> GcmContext::create(
    std::span<const std::uint8_t> key) {
  auto aes = Aes::create(key);
  if (!aes) return aes.status();
  return GcmContext(aes.value());
}

const GhashKey& GcmContext::hkey() const {
  // Datapath workers sealing on a shared SA race to the first use;
  // double-checked locking keeps the table write single-threaded while
  // the hot path stays one acquire load. ghash_init() release-stores
  // `owner` after writing the table, so passing the acquire check means
  // the table is fully visible.
  const CryptoBackend* backend = &active_backend();
  if (hkey_.owner.load(std::memory_order_acquire) != backend) {
    const std::lock_guard<std::mutex> lock(hkey_init_mutex_);
    if (hkey_.owner.load(std::memory_order_relaxed) != backend) {
      backend->ghash_init(hkey_);
    }
  }
  return hkey_;
}

void GcmContext::ghash_absorb_padded(std::span<const std::uint8_t> data,
                                     std::uint8_t state[16]) const {
  const GhashKey& key = hkey();
  const CryptoBackend& backend = active_backend();
  const std::size_t full = data.size() / 16;
  backend.ghash(key, state, data.data(), full);
  if (data.size() % 16 != 0) {
    std::uint8_t padded[16] = {};
    std::memcpy(padded, data.data() + 16 * full, data.size() % 16);
    backend.ghash(key, state, padded, 1);
  }
}

void GcmContext::ghash_lengths(std::size_t aad_len, std::size_t ct_len,
                               std::uint8_t state[16]) const {
  std::uint8_t lengths[16];
  util::store_be64(lengths, static_cast<std::uint64_t>(aad_len) * 8);
  util::store_be64(lengths + 8, static_cast<std::uint64_t>(ct_len) * 8);
  active_backend().ghash(hkey(), state, lengths, 1);
}

util::Status GcmContext::seal(std::span<const std::uint8_t> iv,
                              std::span<const std::uint8_t> aad,
                              std::span<const std::uint8_t> plaintext,
                              std::uint8_t* ciphertext,
                              std::uint8_t tag[kTagSize]) const {
  if (iv.size() != kIvSize) {
    return invalid_argument("GCM IV must be 12 bytes");
  }
  // J0 = IV || 0^31 || 1; the payload keystream starts at inc32(J0).
  std::uint8_t j0[16];
  std::memcpy(j0, iv.data(), kIvSize);
  util::store_be32(j0 + 12, 1);
  std::uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  util::store_be32(counter + 12, 2);

  const CryptoBackend& backend = active_backend();
  std::uint8_t s[16] = {};
  ghash_absorb_padded(aad, s);
  // The fused pass: CTR encryption and the GHASH over the produced
  // ciphertext in one walk over the payload.
  backend.gcm_crypt(aes_, hkey(), counter, plaintext.data(), ciphertext,
                    plaintext.size(), s, /*encrypt=*/true);
  ghash_lengths(aad.size(), plaintext.size(), s);
  // T = E_K(J0) ^ S — one more CTR block, over the raw GHASH output.
  backend.aes_ctr_xor(aes_, j0, s, tag, 16);
  return util::Status::ok();
}

bool GcmContext::open(std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> aad,
                      std::span<const std::uint8_t> ciphertext,
                      std::span<const std::uint8_t> tag,
                      std::uint8_t* plaintext) const {
  if (iv.size() != kIvSize || tag.size() != kTagSize) return false;
  std::uint8_t j0[16];
  std::memcpy(j0, iv.data(), kIvSize);
  util::store_be32(j0 + 12, 1);
  std::uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  util::store_be32(counter + 12, 2);

  const CryptoBackend& backend = active_backend();
  std::uint8_t s[16] = {};
  ghash_absorb_padded(aad, s);
  // Fused decrypt: GHASH over the ciphertext and the CTR pass share one
  // walk, so plaintext exists before the tag verdict — it is wiped, not
  // released, when authentication fails below.
  backend.gcm_crypt(aes_, hkey(), counter, ciphertext.data(), plaintext,
                    ciphertext.size(), s, /*encrypt=*/false);
  ghash_lengths(aad.size(), ciphertext.size(), s);
  std::uint8_t expected[kTagSize];
  backend.aes_ctr_xor(aes_, j0, s, expected, 16);
  if (!constant_time_equal({expected, kTagSize}, tag)) {
    if (!ciphertext.empty()) std::memset(plaintext, 0, ciphertext.size());
    return false;
  }
  return true;
}

bool GcmContext::crypt_mb_group(const GcmMbOp* const* ops, std::size_t n,
                                bool encrypt,
                                std::uint8_t (*tags)[kTagSize]) const {
  constexpr std::size_t kGroup = CryptoBackend::kMaxMbLanes;
  std::uint8_t j0[kGroup][16];
  std::uint8_t counter[kGroup][16];
  std::uint8_t s[kGroup][16];
  std::uint8_t aadblk[kGroup][16];
  std::uint8_t lenblk[kGroup][16];
  GcmMbLane lanes[kGroup];
  for (std::size_t i = 0; i < n; ++i) {
    const GcmMbOp& op = *ops[i];
    // J0 = IV || 0^31 || 1; the payload keystream starts at inc32(J0).
    std::memcpy(j0[i], op.iv.data(), kIvSize);
    util::store_be32(j0[i] + 12, 1);
    std::memcpy(counter[i], j0[i], 16);
    util::store_be32(counter[i] + 12, 2);
    std::memset(s[i], 0, 16);
    lanes[i] = GcmMbLane{counter[i], op.input.data(), op.output,
                         op.input.size(), s[i], encrypt};
    // The AAD (<= 16 bytes for RFC 4106 ESP: SPI + sequence number) and
    // the lengths block ride into the batched kernel as the lane's
    // pre/post GHASH blocks — folded inside its aggregated reductions
    // instead of costing two ghash() round trips per lane.
    if (op.aad.size() <= 16) {
      if (!op.aad.empty()) {
        std::memset(aadblk[i], 0, 16);
        std::memcpy(aadblk[i], op.aad.data(), op.aad.size());
        lanes[i].pre_block = aadblk[i];
      }
    } else {
      ghash_absorb_padded(op.aad, s[i]);
    }
    util::store_be64(lenblk[i], static_cast<std::uint64_t>(op.aad.size()) * 8);
    util::store_be64(lenblk[i] + 8,
                     static_cast<std::uint64_t>(op.input.size()) * 8);
    lanes[i].post_block = lenblk[i];
  }
  const CryptoBackend& backend = active_backend();
  if (!backend.gcm_crypt_mb(aes_, hkey(), lanes, n)) return false;
  // One AES call masks every lane's tag: T_i = E_K(J0_i) ^ S_i.
  backend.aes_encrypt_blocks(aes_, j0[0], tags[0], n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < kTagSize; ++b) tags[i][b] ^= s[i][b];
  }
  return true;
}

util::Status GcmContext::seal_mb(const GcmMbOp* ops, std::size_t nops) const {
  for (std::size_t i = 0; i < nops; ++i) {
    if (ops[i].iv.size() != kIvSize) {
      return invalid_argument("GCM IV must be 12 bytes");
    }
  }
  constexpr std::size_t kGroup = CryptoBackend::kMaxMbLanes;
  for (std::size_t base = 0; base < nops; base += kGroup) {
    const std::size_t n = std::min(kGroup, nops - base);
    const GcmMbOp* group[kGroup];
    for (std::size_t i = 0; i < n; ++i) group[i] = &ops[base + i];
    std::uint8_t tags[kGroup][kTagSize];
    // All lanes encrypt, n is in range: the batched kernel cannot refuse.
    if (!crypt_mb_group(group, n, /*encrypt=*/true, tags)) {
      return util::internal_error("gcm_crypt_mb rejected a uniform batch");
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(group[i]->tag, tags[i], kTagSize);
    }
  }
  return util::Status::ok();
}

bool GcmContext::open_mb(const GcmMbOp* ops, std::size_t nops,
                         bool* ok) const {
  constexpr std::size_t kGroup = CryptoBackend::kMaxMbLanes;
  bool all_ok = true;
  for (std::size_t base = 0; base < nops; base += kGroup) {
    const std::size_t n = std::min(kGroup, nops - base);
    // A lane with a malformed IV fails on its own; the rest of the group
    // still runs.
    const GcmMbOp* group[kGroup];
    std::size_t lane_op[kGroup];
    std::size_t nlanes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ops[base + i].iv.size() != kIvSize) {
        ok[base + i] = false;
        all_ok = false;
        continue;
      }
      lane_op[nlanes] = base + i;
      group[nlanes++] = &ops[base + i];
    }
    if (nlanes == 0) continue;
    std::uint8_t expected[kGroup][kTagSize];
    if (!crypt_mb_group(group, nlanes, /*encrypt=*/false, expected)) {
      return false;
    }
    for (std::size_t l = 0; l < nlanes; ++l) {
      const GcmMbOp& op = *group[l];
      const bool good = constant_time_equal({expected[l], kTagSize},
                                            {op.tag, kTagSize});
      ok[lane_op[l]] = good;
      if (!good) {
        if (!op.input.empty()) std::memset(op.output, 0, op.input.size());
        all_ok = false;
      }
    }
  }
  return all_ok;
}

}  // namespace nnfv::crypto
