// Span tracing for the traced benchmark binary.
//
// A span is one timed call across a layer boundary: its name, start and
// end (steady_clock ns), the span that was open on the same thread when
// it began (its parent), and the id of the burst that caused it. Spans
// go to a per-thread buffer preallocated at first use and are only
// summarised or written out after the measured phase ends.
//
// Self time is a span's duration minus the durations of its direct
// children. Children never overlap on one thread (they nest strictly),
// so that difference is exactly the part of the interval no child
// covers.
//
// The span arithmetic (self_times, nesting_errors) is always compiled
// so the self-test can check it; the recording machinery exists only in
// the traced build (NODEBENCH_TRACE). In the untraced build NB_SPAN
// expands to nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nodebench::trace {

/// Span names; the numeric value is the name field of a span record.
enum class Name : std::uint16_t {
  kInjectBurst,   // UniversalNode::inject_burst
  kSimRun,        // Simulator::run
  kDrain,         // UniversalNode::drain_datapath
  kEgress,        // the benchmark's egress callback
  kEgressFree,    // freeing a delivered frame inside the callback
  kDeploy,        // LocalOrchestrator::deploy
  kUpdateNf,      // LocalOrchestrator::update_nf
  kRemove,        // LocalOrchestrator::remove
  kNfFirewall,    // NetworkFunction::process/process_burst, per type
  kNfNat,
  kNfIpsec,
  kNfOther,
  kNfConfigure,   // NetworkFunction::configure
  kPluginCreate,  // NnfPlugin::create_function
  kPluginUpdate,  // NnfPlugin::update
  kGcmCrypt,      // CryptoBackend::gcm_crypt
  kGcmCryptMb,    // CryptoBackend::gcm_crypt_mb
  kGhash,         // CryptoBackend::ghash
  kCount
};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  ///< index in the same thread's buffer
  std::uint32_t burst = 0;
  Name name = Name::kCount;
};

/// self[i] = duration of span i minus the durations of its direct
/// children. `spans` is one thread's buffer (parents precede children).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Spans whose interval is not inside their parent's interval, or whose
/// parent index does not precede them.
std::size_t nesting_errors(const std::vector<Span>& spans);

#ifdef NODEBENCH_TRACE

/// Burst id stamped on spans the calling thread opens from now on.
void set_burst(std::uint32_t id);

/// Spans and decorator counts are recorded only while enabled, so the
/// benchmark's own work between timed regions (building and sealing
/// frames, opening samples) stays out of the per-layer figures.
bool enabled();

/// Disables recording for its lifetime (all threads).
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;

 private:
  bool was_;
};

class Scope {
 public:
  explicit Scope(Name name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

/// Every thread's buffer. Call only while no thread records.
std::vector<const std::vector<Span>*> buffers();
/// Empties every buffer. Call only while no thread records.
void clear();
/// True once any thread's buffer is more than 90% full.
bool nearly_full();
/// Spans lost because a buffer was full.
std::uint64_t dropped();
/// Writes every buffer as fixed 32-byte records (see README.md).
bool write(const std::string& path);

#define NB_CAT2(a, b) a##b
#define NB_CAT(a, b) NB_CAT2(a, b)
#define NB_SPAN(n) \
  ::nodebench::trace::Scope NB_CAT(nb_span_, __LINE__)(::nodebench::trace::Name::n)
#define NB_SET_BURST(id) ::nodebench::trace::set_burst(id)
#define NB_UNTRACED() ::nodebench::trace::Pause NB_CAT(nb_pause_, __LINE__)

#else

#define NB_SPAN(n) \
  do {             \
  } while (false)
#define NB_SET_BURST(id) \
  do {                   \
    (void)(id);          \
  } while (false)
#define NB_UNTRACED() \
  do {                \
  } while (false)

#endif

}  // namespace nodebench::trace
