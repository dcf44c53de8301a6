#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace nodebench::trace {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end - spans[i].start;
    const std::int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < i) {
      self[static_cast<std::size_t>(parent)] -= spans[i].end - spans[i].start;
    }
  }
  return self;
}

std::size_t nesting_errors(const std::vector<Span>& spans) {
  std::size_t errors = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < s.start) {
      ++errors;
      continue;
    }
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= i) {
      ++errors;
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start < p.start || s.end > p.end) ++errors;
  }
  return errors;
}

#ifdef NODEBENCH_TRACE

namespace {

// 1 Mi spans x 32 bytes per thread; pages are touched only as spans are
// written, so idle threads cost address space, not memory.
constexpr std::size_t kCapacity = std::size_t{1} << 20;

struct Buffer {
  std::vector<Span> spans;
  std::int32_t open = -1;  // innermost open span on this thread
  std::uint32_t burst = 0;
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<Buffer>>& registry() {
  static std::vector<std::unique_ptr<Buffer>> buffers;
  return buffers;
}
std::atomic<std::uint64_t> dropped_spans{0};
std::atomic<bool> recording{true};

Buffer& local() {
  thread_local Buffer* buffer = [] {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(kCapacity);
    Buffer* raw = owned.get();
    const std::lock_guard<std::mutex> lock(registry_mutex);
    registry().push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_burst(std::uint32_t id) { local().burst = id; }

bool enabled() { return recording.load(std::memory_order_relaxed); }

Pause::Pause() : was_(recording.exchange(false)) {}
Pause::~Pause() { recording.store(was_); }

Scope::Scope(Name name) {
  if (!enabled()) {
    index_ = -1;
    return;
  }
  Buffer& b = local();
  if (b.spans.size() == b.spans.capacity()) {
    index_ = -1;
    dropped_spans.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back(Span{now_ns(), 0, b.open, b.burst, name});
  b.open = index_;
}

Scope::~Scope() {
  if (index_ < 0) return;
  Buffer& b = local();
  Span& span = b.spans[static_cast<std::size_t>(index_)];
  span.end = now_ns();
  b.open = span.parent;
}

std::vector<const std::vector<Span>*> buffers() {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  std::vector<const std::vector<Span>*> out;
  for (const auto& buffer : registry()) out.push_back(&buffer->spans);
  return out;
}

void clear() {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  for (const auto& buffer : registry()) {
    buffer->spans.clear();
    buffer->open = -1;
  }
  dropped_spans.store(0);
}

bool nearly_full() {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  for (const auto& b : registry()) {
    if (b->spans.size() * 10 > b->spans.capacity() * 9) return true;
  }
  return false;
}

std::uint64_t dropped() { return dropped_spans.load(); }

bool write(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  bool ok = true;
  std::uint16_t thread = 0;
  for (const std::vector<Span>* spans : buffers()) {
    for (const Span& s : *spans) {
      // Record: u16 thread, u16 name, i32 parent, u32 burst, u32 zero,
      // i64 start, i64 end (little-endian on every supported host).
      const std::uint16_t name = static_cast<std::uint16_t>(s.name);
      const std::uint32_t zero = 0;
      ok = ok && std::fwrite(&thread, 2, 1, out) == 1 &&
           std::fwrite(&name, 2, 1, out) == 1 &&
           std::fwrite(&s.parent, 4, 1, out) == 1 &&
           std::fwrite(&s.burst, 4, 1, out) == 1 &&
           std::fwrite(&zero, 4, 1, out) == 1 &&
           std::fwrite(&s.start, 8, 1, out) == 1 &&
           std::fwrite(&s.end, 8, 1, out) == 1;
    }
    ++thread;
  }
  return std::fclose(out) == 0 && ok;
}

#endif

}  // namespace nodebench::trace
