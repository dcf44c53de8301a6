// Tracing decorators for the traced benchmark binary. They sit on public
// extension points the benchmark owns, so the product code is traced
// without being edited:
//
//  * TracedPlugin wraps a built-in NnfPlugin and is registered in the
//    node's catalog (node built with builtin_nnf_plugins = false). The
//    functions it creates are wrapped in a decorator that forwards every
//    virtual call and records spans around process/process_burst and
//    configure.
//  * TracedCrypto wraps the selected CryptoBackend and is installed with
//    ScopedBackendOverride. It forwards every call and records spans and
//    lane counts for the GCM entry points.
//  * A counting replacement of the global operator new (decorators.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "crypto/backend.hpp"
#include "nnf/catalog.hpp"

namespace nodebench {

/// Registers traced wrappers of the four built-in NNF plugins.
void register_traced_plugins(nnfv::nnf::NnfCatalog& catalog);

/// Counters the crypto decorator keeps (relaxed; read after the phase).
struct CryptoCounts {
  std::atomic<std::uint64_t> calls{0};     ///< gcm_crypt + gcm_crypt_mb + ghash
  std::atomic<std::uint64_t> mb_calls{0};
  std::atomic<std::uint64_t> mb_lanes{0};
};

class TracedCrypto final : public nnfv::crypto::CryptoBackend {
 public:
  explicit TracedCrypto(const nnfv::crypto::CryptoBackend& inner)
      : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] bool usable() const override { return inner_.usable(); }
  void aes_encrypt_blocks(const nnfv::crypto::Aes& aes,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks) const override;
  void aes_decrypt_blocks(const nnfv::crypto::Aes& aes,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t nblocks) const override;
  void cbc_encrypt(const nnfv::crypto::Aes& aes, const std::uint8_t* iv,
                   const std::uint8_t* in, std::uint8_t* out,
                   std::size_t len) const override;
  void cbc_decrypt(const nnfv::crypto::Aes& aes, const std::uint8_t* iv,
                   const std::uint8_t* in, std::uint8_t* out,
                   std::size_t len) const override;
  void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t nblocks) const override;
  void aes_ctr_xor(const nnfv::crypto::Aes& aes,
                   const std::uint8_t counter[16], const std::uint8_t* in,
                   std::uint8_t* out, std::size_t len) const override;
  void gcm_crypt(const nnfv::crypto::Aes& aes,
                 const nnfv::crypto::GhashKey& key,
                 const std::uint8_t counter[16], const std::uint8_t* in,
                 std::uint8_t* out, std::size_t len, std::uint8_t state[16],
                 bool encrypt) const override;
  [[nodiscard]] bool gcm_crypt_mb(const nnfv::crypto::Aes& aes,
                                  const nnfv::crypto::GhashKey& key,
                                  nnfv::crypto::GcmMbLane* lanes,
                                  std::size_t nlanes) const override;
  void ghash_init(nnfv::crypto::GhashKey& key) const override;
  void ghash(const nnfv::crypto::GhashKey& key, std::uint8_t state[16],
             const std::uint8_t* blocks,
             std::size_t nblocks) const override;

  CryptoCounts& counts() const { return counts_; }

 private:
  const nnfv::crypto::CryptoBackend& inner_;
  mutable CryptoCounts counts_;
};

/// operator new calls since process start (all threads).
std::uint64_t heap_allocs();

}  // namespace nodebench
