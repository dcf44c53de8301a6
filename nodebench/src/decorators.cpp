#include "decorators.hpp"

#include <cstdlib>
#include <new>

#include "nnf/plugin.hpp"
#include "trace.hpp"

namespace nodebench {

namespace {

using nnfv::nnf::ContextId;
using nnfv::nnf::NetworkFunction;
using nnfv::nnf::NfConfig;
using nnfv::nnf::NfOutput;
using nnfv::nnf::NfPortIndex;

trace::Name process_span(std::string_view type) {
  if (type == "firewall") return trace::Name::kNfFirewall;
  if (type == "nat") return trace::Name::kNfNat;
  if (type == "ipsec") return trace::Name::kNfIpsec;
  return trace::Name::kNfOther;
}

class TracedNf final : public NetworkFunction {
 public:
  explicit TracedNf(std::unique_ptr<NetworkFunction> inner)
      : inner_(std::move(inner)), span_(process_span(inner_->type())) {}

  [[nodiscard]] std::string_view type() const override {
    return inner_->type();
  }
  [[nodiscard]] std::size_t num_ports() const override {
    return inner_->num_ports();
  }
  nnfv::util::Status add_context(ContextId ctx) override {
    return inner_->add_context(ctx);
  }
  nnfv::util::Status remove_context(ContextId ctx) override {
    return inner_->remove_context(ctx);
  }
  [[nodiscard]] bool has_context(ContextId ctx) const override {
    return inner_->has_context(ctx);
  }
  nnfv::util::Status configure(ContextId ctx,
                               const NfConfig& config) override {
    NB_SPAN(kNfConfigure);
    return inner_->configure(ctx, config);
  }
  std::vector<NfOutput> process(ContextId ctx, NfPortIndex in_port,
                                nnfv::sim::SimTime now,
                                nnfv::packet::PacketBuffer&& frame) override {
    const trace::Scope span(span_);
    return inner_->process(ctx, in_port, now, std::move(frame));
  }
  std::vector<NfOutput> process_burst(
      ContextId ctx, NfPortIndex in_port, nnfv::sim::SimTime now,
      nnfv::packet::PacketBurst&& burst) override {
    const trace::Scope span(span_);
    return inner_->process_burst(ctx, in_port, now, std::move(burst));
  }
  [[nodiscard]] nnfv::json::Value describe_stats(
      ContextId ctx) const override {
    return inner_->describe_stats(ctx);
  }

 private:
  std::unique_ptr<NetworkFunction> inner_;
  trace::Name span_;
};

class TracedPlugin final : public nnfv::nnf::NnfPlugin {
 public:
  explicit TracedPlugin(std::shared_ptr<nnfv::nnf::NnfPlugin> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const nnfv::nnf::NnfDescriptor& descriptor() const override {
    return inner_->descriptor();
  }
  nnfv::util::Result<std::unique_ptr<NetworkFunction>> create_function()
      override {
    NB_SPAN(kPluginCreate);
    auto created = inner_->create_function();
    if (!created) return created.status();
    return nnfv::util::Result<std::unique_ptr<NetworkFunction>>(
        std::make_unique<TracedNf>(std::move(created.value())));
  }
  nnfv::util::Status update(NetworkFunction& nf, ContextId ctx,
                            const NfConfig& config) override {
    NB_SPAN(kPluginUpdate);
    return inner_->update(nf, ctx, config);
  }
  nnfv::util::Status on_start(NetworkFunction& nf) override {
    return inner_->on_start(nf);
  }
  nnfv::util::Status on_stop(NetworkFunction& nf) override {
    return inner_->on_stop(nf);
  }

 private:
  std::shared_ptr<nnfv::nnf::NnfPlugin> inner_;
};

std::atomic<std::uint64_t> new_calls{0};

void* counted_alloc(std::size_t size) {
  new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  new_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void register_traced_plugins(nnfv::nnf::NnfCatalog& catalog) {
  for (auto plugin :
       {nnfv::nnf::make_bridge_plugin(), nnfv::nnf::make_firewall_plugin(),
        nnfv::nnf::make_nat_plugin(), nnfv::nnf::make_ipsec_plugin()}) {
    (void)catalog.register_plugin(
        std::make_shared<TracedPlugin>(std::move(plugin)));
  }
}

std::uint64_t heap_allocs() {
  return new_calls.load(std::memory_order_relaxed);
}

void TracedCrypto::aes_encrypt_blocks(const nnfv::crypto::Aes& aes,
                                      const std::uint8_t* in,
                                      std::uint8_t* out,
                                      std::size_t nblocks) const {
  inner_.aes_encrypt_blocks(aes, in, out, nblocks);
}

void TracedCrypto::aes_decrypt_blocks(const nnfv::crypto::Aes& aes,
                                      const std::uint8_t* in,
                                      std::uint8_t* out,
                                      std::size_t nblocks) const {
  inner_.aes_decrypt_blocks(aes, in, out, nblocks);
}

void TracedCrypto::cbc_encrypt(const nnfv::crypto::Aes& aes,
                               const std::uint8_t* iv, const std::uint8_t* in,
                               std::uint8_t* out, std::size_t len) const {
  inner_.cbc_encrypt(aes, iv, in, out, len);
}

void TracedCrypto::cbc_decrypt(const nnfv::crypto::Aes& aes,
                               const std::uint8_t* iv, const std::uint8_t* in,
                               std::uint8_t* out, std::size_t len) const {
  inner_.cbc_decrypt(aes, iv, in, out, len);
}

void TracedCrypto::sha256_compress(std::uint32_t state[8],
                                   const std::uint8_t* blocks,
                                   std::size_t nblocks) const {
  inner_.sha256_compress(state, blocks, nblocks);
}

void TracedCrypto::aes_ctr_xor(const nnfv::crypto::Aes& aes,
                               const std::uint8_t counter[16],
                               const std::uint8_t* in, std::uint8_t* out,
                               std::size_t len) const {
  inner_.aes_ctr_xor(aes, counter, in, out, len);
}

void TracedCrypto::gcm_crypt(const nnfv::crypto::Aes& aes,
                             const nnfv::crypto::GhashKey& key,
                             const std::uint8_t counter[16],
                             const std::uint8_t* in, std::uint8_t* out,
                             std::size_t len, std::uint8_t state[16],
                             bool encrypt) const {
  NB_SPAN(kGcmCrypt);
  if (trace::enabled()) counts_.calls.fetch_add(1, std::memory_order_relaxed);
  inner_.gcm_crypt(aes, key, counter, in, out, len, state, encrypt);
}

bool TracedCrypto::gcm_crypt_mb(const nnfv::crypto::Aes& aes,
                                const nnfv::crypto::GhashKey& key,
                                nnfv::crypto::GcmMbLane* lanes,
                                std::size_t nlanes) const {
  NB_SPAN(kGcmCryptMb);
  if (trace::enabled()) {
    counts_.calls.fetch_add(1, std::memory_order_relaxed);
    counts_.mb_calls.fetch_add(1, std::memory_order_relaxed);
    counts_.mb_lanes.fetch_add(nlanes, std::memory_order_relaxed);
  }
  return inner_.gcm_crypt_mb(aes, key, lanes, nlanes);
}

void TracedCrypto::ghash_init(nnfv::crypto::GhashKey& key) const {
  inner_.ghash_init(key);
  // The inner backend stamped itself as the table's owner; GcmContext
  // compares the owner with the active backend (this decorator), so
  // without the restamp it would rebuild the table on every packet and
  // the trace would measure a different program.
  key.owner.store(this, std::memory_order_release);
}

void TracedCrypto::ghash(const nnfv::crypto::GhashKey& key,
                         std::uint8_t state[16], const std::uint8_t* blocks,
                         std::size_t nblocks) const {
  NB_SPAN(kGhash);
  if (trace::enabled()) counts_.calls.fetch_add(1, std::memory_order_relaxed);
  inner_.ghash(key, state, blocks, nblocks);
}

}  // namespace nodebench

// Counting replacements of the global allocation functions. Only the
// traced binary links this file.
void* operator new(std::size_t size) {
  return nodebench::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return nodebench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return nodebench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return nodebench::counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return nodebench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return nodebench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
