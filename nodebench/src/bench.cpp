// nodebench: wall-clock benchmark of the assembled node.
//
// Drives a core::UniversalNode the way an operator would: tenant graphs
// deployed through orchestrator().deploy(), frames entering through
// inject_burst(), frames collected at set_egress(). Every figure is
// steady_clock wall time or process CPU time on the host that runs it;
// nothing comes from the simulator's service-time model.
//
// One run = one workload and one seed, cut into kEpochs epochs of
// kSlices / kEpochs slices. Each epoch starts with
//   setup      node construction + tenant deploys + one warm-up round,
//              repeated kEpochSetups times; the last node built carries
//              the epoch's traffic (setup_s is the median over all
//              epochs; the warm-up frames are built before and checked
//              after the timed region);
// and each slice runs three phases in turn:
//   closed     saturation: pre-built bursts injected back to back
//              (throughput, goodput, CPU per frame);
//   open       fixed offered rate, frames timed from their due time to
//              their egress (latency);
//   control    deploy / update_nf / remove cycles of a ninth tenant
//              (tenant_churn runs them inside closed and open instead).
// Delivered frames are sampled and verified outside the timed regions.
// The last stdout line is one JSON object that run.py turns into the
// benchmark's result line. See README.md for metrics and workloads.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "crypto/backend.hpp"
#include "nffg/nffg.hpp"
#include "nnf/adaptation.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "packet/mbuf.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/cpuid.hpp"

#ifdef NODEBENCH_TRACE
#include "decorators.hpp"
#endif

#ifndef NODEBENCH_BUILD_TYPE
#define NODEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nnfv;  // NOLINT(google-build-using-namespace)
using packet::PacketBuffer;
using packet::PacketBurst;
namespace trace = nodebench::trace;
#ifdef NODEBENCH_TRACE
using nodebench::heap_allocs;
using nodebench::register_traced_plugins;
using nodebench::TracedCrypto;
#endif

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Chain { kFwd, kCpe, kEsp };

struct Workload {
  const char* name;
  Chain chain;
  std::size_t workers;           ///< UniversalNodeConfig::datapath_workers
  std::size_t tenants;
  std::size_t flows_per_tenant;
  std::size_t payload;           ///< UDP payload bytes
  /// Open-loop offered rate (frames/s). Fixed here, about half of the
  /// closed-loop saturation measured when the benchmark was written on a
  /// 4-vCPU x86 VM; never derived from the current run.
  double offered_fps;
  /// Frames between two churn cycles; 0 = no churn during traffic.
  std::size_t churn_interval;
};

constexpr Workload kWorkloads[] = {
    {"fwd_64B_sharded", Chain::kFwd, 2, 8, 128, 64, 500000.0, 0},
    {"cpe_64B", Chain::kCpe, 0, 8, 64, 64, 120000.0, 0},
    {"esp_1408B", Chain::kEsp, 0, 1, 16, 1408, 280000.0, 0},
    {"tenant_churn", Chain::kCpe, 0, 8, 64, 64, 110000.0, 1024},
};

constexpr std::size_t kBurst = 32;
constexpr std::size_t kRoundBursts = 16;     // closed-loop round
constexpr std::size_t kSegmentFrames = 1024;  // open-loop segment
constexpr std::size_t kEpochs = 5;
constexpr std::size_t kEpochSetups = 9;
constexpr std::size_t kSlices = 40;
constexpr std::size_t kSampleEvery = 64;     // verify 1 frame in 64
constexpr std::size_t kChurnTemplates = 16;
constexpr std::uint16_t kTenantVlanBase = 100;
constexpr std::uint16_t kChurnVlanBase = 200;
constexpr std::uint16_t kChurnVlans = 32;
constexpr std::uint32_t kChurnTenant = 0xFFFF;
constexpr std::size_t kPayloadOffset = 18 + 20 + 8;  // tagged Eth + IPv4 + UDP

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts thread `tid` (0 = the caller, and threads it creates later)
/// to `cpus`.
void set_affinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(tid, sizeof set, &set);
}

/// Every thread of this process except the caller: the node's datapath
/// workers, the only threads the benchmark starts besides its own.
std::vector<pid_t> other_threads() {
  std::vector<pid_t> tids;
  const pid_t self = gettid();
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      const long tid = std::strtol(entry->d_name, nullptr, 10);
      if (tid > 0 && tid != self) tids.push_back(static_cast<pid_t>(tid));
    }
    closedir(dir);
  }
  return tids;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::string hex(const std::uint8_t* p, std::size_t n) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out += digits[p[i] >> 4];
    out += digits[p[i] & 15];
  }
  return out;
}

packet::Ipv4Address ip(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                       std::uint8_t d) {
  return packet::Ipv4Address{std::uint32_t{a} << 24 |
                             std::uint32_t{b} << 16 |
                             std::uint32_t{c} << 8 | d};
}

/// What the egress parser sees in a delivered frame.
struct Wire {
  std::optional<std::uint16_t> vlan;
  std::size_t l3 = 0;  ///< IPv4 header offset
  std::uint8_t proto = 0;
  std::size_t l4 = 0;  ///< transport / ESP header offset
};

std::optional<Wire> parse_wire(std::span<const std::uint8_t> f) {
  Wire w;
  if (f.size() < 14) return std::nullopt;
  std::size_t off = 12;
  std::uint16_t type = static_cast<std::uint16_t>(f[off] << 8 | f[off + 1]);
  if (type == 0x8100) {
    if (f.size() < 18) return std::nullopt;
    w.vlan = static_cast<std::uint16_t>((f[14] << 8 | f[15]) & 0x0FFF);
    off += 4;
    type = static_cast<std::uint16_t>(f[off] << 8 | f[off + 1]);
  }
  if (type != 0x0800) return std::nullopt;
  w.l3 = off + 2;
  if (f.size() < w.l3 + 20) return std::nullopt;
  w.proto = f[w.l3 + 9];
  w.l4 = w.l3 + static_cast<std::size_t>(f[w.l3] & 0x0F) * 4;
  if (f.size() < w.l4 + 8) return std::nullopt;
  return w;
}

// ---------------------------------------------------------------------------
// Tenants, graphs, frame templates
// ---------------------------------------------------------------------------

struct Tenant {
  std::string graph_id;
  std::uint16_t vlan = 0;
  packet::Ipv4Address lan_ip;
  packet::Ipv4Address ext_ip;     ///< NAT external address
  packet::Ipv4Address local_ip;   ///< tunnel end on the node
  packet::Ipv4Address peer_ip;    ///< remote gateway
  std::uint32_t spi_out = 0;      ///< node -> gateway
  std::uint32_t spi_in = 0;       ///< gateway -> node
  std::string key_hex;            ///< 40 hex: AES-128 key + GCM salt
};

nffg::NfFg tenant_graph(Chain chain, const Tenant& t) {
  nffg::NfFg g;
  g.id = t.graph_id;
  g.add_endpoint("lan", "eth0", t.vlan);
  g.add_endpoint("wan", "eth1", t.vlan);
  auto vpn_config = [&]() {
    return nnf::NfConfig{{"local_ip", t.local_ip.to_string()},
                         {"peer_ip", t.peer_ip.to_string()},
                         {"spi_out", std::to_string(t.spi_out)},
                         {"spi_in", std::to_string(t.spi_in)},
                         {"esp_transform", "gcm"},
                         {"enc_key", t.key_hex}};
  };
  using nffg::endpoint_ref;
  using nffg::nf_port;
  switch (chain) {
    case Chain::kFwd:
      g.connect("up", endpoint_ref("lan"), endpoint_ref("wan"));
      g.connect("down", endpoint_ref("wan"), endpoint_ref("lan"));
      break;
    case Chain::kCpe: {
      nffg::NfNode& fw = g.add_nf("fw", "firewall");
      fw.backend_hint = virt::BackendKind::kNative;
      fw.config = {{"policy", "accept"},
                   {"rule.1", "drop,any,any,tcp,23"},
                   {"rule.2", "drop,any,any,tcp,445"},
                   {"rule.3", "drop,any,any,udp,1900"}};
      nffg::NfNode& nat = g.add_nf("nat", "nat");
      nat.backend_hint = virt::BackendKind::kNative;
      nat.config = {{"external_ip", t.ext_ip.to_string()}};
      nffg::NfNode& vpn = g.add_nf("vpn", "ipsec");
      vpn.backend_hint = virt::BackendKind::kNative;
      vpn.config = vpn_config();
      g.connect("r1", endpoint_ref("lan"), nf_port("fw", 0));
      g.connect("r2", nf_port("fw", 1), nf_port("nat", 0));
      g.connect("r3", nf_port("nat", 1), nf_port("vpn", 0));
      g.connect("r4", nf_port("vpn", 1), endpoint_ref("wan"));
      g.connect("r5", endpoint_ref("wan"), nf_port("vpn", 1));
      g.connect("r6", nf_port("vpn", 0), nf_port("nat", 1));
      g.connect("r7", nf_port("nat", 0), nf_port("fw", 1));
      g.connect("r8", nf_port("fw", 0), endpoint_ref("lan"));
      break;
    }
    case Chain::kEsp: {
      nffg::NfNode& vpn = g.add_nf("vpn", "ipsec");
      vpn.backend_hint = virt::BackendKind::kNative;
      vpn.config = vpn_config();
      g.connect("r1", endpoint_ref("lan"), nf_port("vpn", 0));
      g.connect("r2", nf_port("vpn", 1), endpoint_ref("wan"));
      g.connect("r3", endpoint_ref("wan"), nf_port("vpn", 1));
      g.connect("r4", nf_port("vpn", 0), endpoint_ref("lan"));
      break;
    }
  }
  return g;
}

struct Template {
  PacketBuffer frame;    ///< UDP frame, seq field zero
  std::uint32_t tenant = 0;
  bool down = false;     ///< WAN -> LAN: sealed by the remote gateway
};

// ---------------------------------------------------------------------------
// Egress sink: per-slot counters (egress runs on worker threads when the
// node is sharded; one shared counter would need atomics and a plain one
// loses counts).
// ---------------------------------------------------------------------------

struct Record {
  std::uint64_t id;  ///< frame seq, or kEspId | spi << 32 | esp seq
  std::int64_t at;
};

constexpr std::uint64_t kEspId = std::uint64_t{1} << 63;

struct alignas(64) Shard {
  std::uint64_t delivered = 0;
  std::vector<Record> records;
  std::vector<PacketBuffer> samples;
  std::uint64_t record_overflow = 0;
};

class Sink {
 public:
  Sink() {
    for (Shard& s : shards_) {
      s.records.reserve(kSegmentFrames * 2);
      s.samples.reserve(kRoundBursts * kBurst / kSampleEvery * 4 + 64);
    }
  }

  void on_egress(PacketBuffer&& frame) {
    const std::size_t slot = exec::current_worker_slot();
#ifdef NODEBENCH_TRACE
    if (slot != 0) {
      // On a worker the generator's burst id is unknown; recover it from
      // the frame's sequence number.
      auto w = parse_wire(frame.data());
      if (w && w->proto == 17 && frame.size() >= w->l4 + 16) {
        NB_SET_BURST(load_u32(&frame.data()[w->l4 + 8 + 4]) / kBurst);
      }
    }
#endif
    NB_SPAN(kEgress);
    Shard& s = shards_[slot];
    ++s.delivered;
    if (recording_.load(std::memory_order_relaxed)) {
      const std::span<const std::uint8_t> f = frame.data();
      std::uint64_t id = ~std::uint64_t{0};
      if (auto w = parse_wire(f)) {
        if (w->proto == 50) {
          id = kEspId | std::uint64_t{load_u32(&f[w->l4])} << 32 |
               load_u32(&f[w->l4 + 4]);
        } else if (w->proto == 17 && f.size() >= w->l4 + 16) {
          id = load_u32(&f[w->l4 + 8 + 4]);
        }
      }
      if (s.records.size() < s.records.capacity()) {
        s.records.push_back(Record{id, now_ns()});
      } else {
        ++s.record_overflow;
      }
    }
    if (s.delivered % kSampleEvery == 0 &&
        s.samples.size() < s.samples.capacity()) {
      s.samples.push_back(std::move(frame));
      return;
    }
    NB_SPAN(kEgressFree);
    PacketBuffer dead(std::move(frame));
  }

  void set_recording(bool on) { recording_.store(on); }
  std::array<Shard, exec::kMaxWorkers + 1>& shards() { return shards_; }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) n += s.delivered;
    return n;
  }

 private:
  std::array<Shard, exec::kMaxWorkers + 1> shards_;
  std::atomic<bool> recording_{false};
};

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool closed_only = false;  ///< only the closed-loop phase (overhead ref)
  std::string trace_out;
};

/// Where one slice's samples start in the benchmark's sample vectors.
struct SliceMark {
  std::size_t rounds = 0;
  std::size_t segments = 0;
  std::size_t deploy = 0;
  std::size_t update = 0;
  std::size_t remove = 0;
};

/// Node counters read before and after the closed-loop phase. Only the
/// node's datapath moves them.
struct Counters {
  std::uint64_t lsi_passes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t ipsec_drops = 0;
  std::uint64_t ingress_drops = 0;
};

/// Process-wide counters that the benchmark's own work would also move;
/// read around each timed region and summed.
struct DatapathCounters {
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_heap_events = 0;
  std::uint64_t cross_worker_frees = 0;
  std::uint64_t heap = 0;
  std::uint64_t crypto_calls = 0;
  std::uint64_t mb_calls = 0;
  std::uint64_t mb_lanes = 0;
};

class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt), w_(*opt.workload) {}

  int run();

 private:
  // Setup.
  void build_tenants();
  void build_templates();
  void configure_gateway();
  void make_node();
  void deploy_tenants();

  // Traffic.
  PacketBuffer make_frame(std::size_t index, std::uint32_t seq,
                          std::string* port);
  void prepare_round(std::vector<PacketBurst>& bursts,
                     std::vector<std::string>& ports);
  std::size_t closed_round(bool measured);
  void inject_round(std::vector<PacketBurst>& bursts,
                    const std::vector<std::string>& ports,
                    std::uint32_t first_seq, bool measured);
  void closed_phase(double seconds);
  void open_phase(double seconds);
  void control_phase(double seconds);
  void after_traffic(std::size_t frames);
  void settle();

  // Control plane.
  void churn_step();
  Tenant churn_tenant(std::uint64_t cycle) const;
  void timed_op(std::vector<double>& samples, const util::Status& status,
                std::int64_t t0);

  // Checks.
  void verify_samples();
  bool verify_frame(PacketBuffer& frame);
  void account_latency(std::int64_t t0, double period_ns,
                       std::uint32_t first_seq,
                       const std::vector<std::vector<std::uint32_t>>& sent);

  // Slice statistics (see report()).
  SliceMark mark() const;
  double slice_figure(const std::vector<double>& all,
                      std::size_t SliceMark::*field,
                      bool higher_is_better) const;

  // Per-layer.
  Counters read_counters();
  DatapathCounters read_datapath_counters();
  /// Prints the result; returns whether every output was correct.
  bool report(std::FILE* out);

#ifdef NODEBENCH_TRACE
  static constexpr std::size_t kSpanNames =
      static_cast<std::size_t>(trace::Name::kCount);
  /// Adds the buffers' spans to the totals below; `closed` marks a
  /// closed-loop slice (per-frame figures), else a control slice.
  void accumulate_spans(bool closed);
  void span_layers();
  double classify_probe();
  double adaptation_probe();
#endif

  const Options& opt_;
  const Workload& w_;
  const std::vector<int> cpus_ = allowed_cpus();
  std::mt19937_64 rng_;

  std::vector<Tenant> tenants_;
  std::vector<Template> templates_;
  std::vector<std::uint32_t> order_;  ///< seeded interleave of templates
  std::size_t cursor_ = 0;
  /// Every burst the generator builds in a closed round, and every open
  /// segment, consumes a multiple of kBurst sequence numbers, so in the
  /// closed loop seq / kBurst is the burst id spans carry on every thread.
  std::uint32_t next_seq_ = 0;
  /// The tenants' remote ESP peer; rebuilt with every node so its
  /// anti-replay windows start where the node's SAs do.
  std::unique_ptr<nnf::IpsecEndpoint> gateway_;
  std::map<std::uint32_t, std::uint32_t> tenant_of_spi_;

  std::unique_ptr<core::UniversalNode> node_;
  Sink sink_;

  // Churn state.
  std::uint64_t churn_cycle_ = 0;
  int churn_step_ = 0;
  std::size_t frames_since_churn_ = 0;
  bool churn_deployed_ = false;

  // Results.
  std::vector<double> setup_s_;
  std::vector<double> round_mpps_;
  std::vector<double> round_cpu_ns_;
  // Open loop, one entry per segment of kSegmentFrames frames: the
  // segment's latency p50 and p99 and its generator lag p99.
  std::vector<double> segment_p50_us_;
  std::vector<double> segment_p99_us_;
  std::vector<double> segment_lag_us_;
  std::vector<float> segment_latency_;  ///< one segment's samples, reused
  std::vector<SliceMark> slice_marks_;  ///< one per slice, plus the end
  std::vector<double> deploy_us_;
  std::vector<double> update_us_;
  std::vector<double> remove_us_;
  std::uint64_t control_ops_ = 0;
  std::uint64_t control_failed_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t mismatched_ = 0;
  std::uint64_t verified_ = 0;
  std::uint64_t unmatched_records_ = 0;
  std::uint64_t closed_frames_ = 0;
  std::int64_t closed_wall_ns_ = 0;
  std::uint64_t sim_events_ = 0;
  Counters closed_node_;       ///< summed over closed-loop slices
  std::uint64_t closed_events_ = 0;
  DatapathCounters closed_dp_;  ///< summed over closed-loop timed regions
  std::map<std::string, double> layer_;
  // Removed churn graphs' LSI counters, so per-layer sums stay exact.
  std::uint64_t gone_lsi_passes_ = 0;
  std::uint64_t gone_cache_hits_ = 0;
  std::uint64_t gone_cache_lookups_ = 0;
  std::string first_mismatch_;

#ifdef NODEBENCH_TRACE
  std::unique_ptr<TracedCrypto> crypto_;
  std::unique_ptr<crypto::ScopedBackendOverride> crypto_override_;
  std::vector<double> deploy_self_us_;
  std::vector<double> remove_self_us_;
  std::vector<double> configure_us_;
  std::size_t nesting_errors_ = 0;
  std::array<double, kSpanNames> span_self_ns_{};
  std::array<double, kSpanNames> span_total_ns_{};
  double span_main_self_ns_ = 0.0;
#endif
};

void Bench::build_tenants() {
  for (std::size_t i = 0; i < w_.tenants; ++i) {
    Tenant t;
    const auto n = static_cast<std::uint8_t>(i + 1);
    t.graph_id = "tenant" + std::to_string(i);
    t.vlan = static_cast<std::uint16_t>(kTenantVlanBase + i);
    t.lan_ip = ip(10, n, 0, 10);
    t.ext_ip = ip(203, 0, 113, n);
    t.local_ip = ip(198, 51, 100, n);
    t.peer_ip = ip(192, 0, 2, n);
    t.spi_out = 0x1000 + static_cast<std::uint32_t>(i);
    t.spi_in = 0x2000 + static_cast<std::uint32_t>(i);
    std::uint8_t key[20];
    for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng_());
    t.key_hex = hex(key, sizeof key);
    tenant_of_spi_[t.spi_out] = static_cast<std::uint32_t>(i);
    tenants_.push_back(std::move(t));
  }
}

void Bench::build_templates() {
  std::vector<std::uint8_t> payload(w_.payload);
  auto add = [&](std::uint32_t tenant, const Tenant& t, std::size_t flow,
                 bool down) {
    for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng_());
    const auto index = static_cast<std::uint32_t>(templates_.size());
    store_u32(payload.data(), index);
    store_u32(payload.data() + 4, 0);
    packet::UdpFrameSpec spec;
    const auto f = static_cast<std::uint16_t>(flow);
    const packet::Ipv4Address server =
        ip(198, 18, static_cast<std::uint8_t>(tenant & 0xFF),
           static_cast<std::uint8_t>(1 + flow % 4));
    if (down) {
      spec.ip_src = server;
      spec.ip_dst = t.lan_ip;
      spec.src_port = static_cast<std::uint16_t>(5000 + f % 8);
      spec.dst_port = static_cast<std::uint16_t>(20000 + f);
    } else {
      spec.vlan = t.vlan;
      spec.ip_src = t.lan_ip;
      spec.ip_dst = server;
      spec.src_port = static_cast<std::uint16_t>(20000 + f);
      spec.dst_port = static_cast<std::uint16_t>(5000 + f % 8);
    }
    spec.payload = payload;
    PacketBuffer frame = packet::build_udp_frame(spec);
    // UDP checksum 0 ("none", RFC 768): the generator stamps a sequence
    // number into every copy without recomputing it.
    auto w = parse_wire(frame.data());
    frame.data()[w->l4 + 6] = 0;
    frame.data()[w->l4 + 7] = 0;
    templates_.push_back(Template{std::move(frame), tenant, down});
  };
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    for (std::size_t f = 0; f < w_.flows_per_tenant; ++f) {
      add(static_cast<std::uint32_t>(t), tenants_[t], f, false);
      if (w_.chain == Chain::kEsp) {
        add(static_cast<std::uint32_t>(t), tenants_[t], f, true);
      }
    }
  }
  const std::size_t regular = templates_.size();
  if (w_.chain == Chain::kCpe) {
    // The churn tenant's own flows; the VLAN is set per cycle.
    const Tenant churn = churn_tenant(0);
    for (std::size_t f = 0; f < kChurnTemplates; ++f) {
      add(kChurnTenant, churn, f, false);
    }
  }

  // Seeded interleave: bursts of frames drawn at random over tenants and
  // flows. esp_1408B alternates a burst of LAN->WAN plaintext with a
  // burst of WAN->LAN ESP.
  constexpr std::size_t kOrder = 1 << 14;
  std::uniform_int_distribution<std::size_t> pick(0, regular - 1);
  std::vector<std::uint32_t> up;
  std::vector<std::uint32_t> down;
  for (std::uint32_t i = 0; i < regular; ++i) {
    (templates_[i].down ? down : up).push_back(i);
  }
  std::uniform_int_distribution<std::size_t> pick_up(0, up.size() - 1);
  for (std::size_t i = 0; i < kOrder; ++i) {
    if (w_.chain != Chain::kEsp) {
      order_.push_back(static_cast<std::uint32_t>(pick(rng_)));
    } else {
      const std::size_t k = pick_up(rng_);
      order_.push_back((i / kBurst) % 2 == 0
                           ? up[k]
                           : down[k % down.size()]);
    }
  }
}

Tenant Bench::churn_tenant(std::uint64_t cycle) const {
  Tenant t;
  t.graph_id = "churn" + std::to_string(cycle);
  t.vlan = static_cast<std::uint16_t>(kChurnVlanBase + cycle % kChurnVlans);
  t.lan_ip = ip(10, 200, 0, 10);
  t.ext_ip = ip(203, 0, 113, 200);
  t.local_ip = ip(198, 51, 100, 200);
  t.peer_ip = ip(192, 0, 2, 200);
  t.spi_out = 0x100000 + static_cast<std::uint32_t>(cycle % 0xFFFFF);
  t.spi_in = 0x200000 + static_cast<std::uint32_t>(cycle % 0xFFFFF);
  t.key_hex = tenants_.empty() ? std::string(40, '1') : tenants_[0].key_hex;
  return t;
}

void Bench::configure_gateway() {
  gateway_ = std::make_unique<nnf::IpsecEndpoint>();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    const auto ctx = static_cast<nnf::ContextId>(i);
    if (ctx != nnf::kDefaultContext) (void)gateway_->add_context(ctx);
    const util::Status st = gateway_->configure(
        ctx, {{"local_ip", t.peer_ip.to_string()},
              {"peer_ip", t.local_ip.to_string()},
              {"spi_out", std::to_string(t.spi_in)},
              {"spi_in", std::to_string(t.spi_out)},
              {"esp_transform", "gcm"},
              {"enc_key", t.key_hex}});
    if (!st.is_ok()) {
      std::fprintf(stderr, "gateway configure failed: %s\n",
                   st.to_string().c_str());
      std::exit(2);
    }
  }
}

void Bench::make_node() {
  core::UniversalNodeConfig config;
  config.datapath_workers = w_.workers;
#ifdef NODEBENCH_TRACE
  config.builtin_nnf_plugins = false;
#endif
  node_ = std::make_unique<core::UniversalNode>(config);
#ifdef NODEBENCH_TRACE
  register_traced_plugins(node_->catalog());
#endif
  for (const char* port : {"eth0", "eth1"}) {
    (void)node_->set_egress(port, [this](PacketBuffer&& frame) {
      sink_.on_egress(std::move(frame));
    });
  }
}

void Bench::deploy_tenants() {
  for (const Tenant& t : tenants_) {
    auto report = node_->orchestrator().deploy(tenant_graph(w_.chain, t));
    if (!report) {
      std::fprintf(stderr, "deploy %s failed: %s\n", t.graph_id.c_str(),
                   report.status().to_string().c_str());
      std::exit(2);
    }
  }
}

PacketBuffer Bench::make_frame(std::size_t index, std::uint32_t seq,
                               std::string* port) {
  const Template& tpl = templates_[index];
  PacketBuffer frame = tpl.frame.copy();
  const std::size_t payload = tpl.down ? kPayloadOffset - 4 : kPayloadOffset;
  store_u32(&frame.data()[payload + 4], seq);
  if (!tpl.down) {
    *port = "eth0";
    return frame;
  }
  *port = "eth1";
  auto out = gateway_->process(static_cast<nnf::ContextId>(tpl.tenant), 0, 0,
                              std::move(frame));
  if (out.size() != 1 || out[0].port != 1) {
    std::fprintf(stderr, "gateway failed to seal a frame\n");
    std::exit(2);
  }
  packet::set_vlan(out[0].frame, tenants_[tpl.tenant].vlan);
  return std::move(out[0].frame);
}

void Bench::prepare_round(std::vector<PacketBurst>& bursts,
                          std::vector<std::string>& ports) {
  NB_UNTRACED();
  bursts.clear();
  bursts.resize(kRoundBursts);
  ports.assign(kRoundBursts, std::string{});
  for (std::size_t b = 0; b < kRoundBursts; ++b) {
    bursts[b].reserve(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
      const std::uint32_t index = order_[cursor_++ % order_.size()];
      bursts[b].push_back(make_frame(index, next_seq_++, &ports[b]));
    }
  }
}

void Bench::after_traffic(std::size_t frames) {
  if (w_.churn_interval == 0) return;
  frames_since_churn_ += frames;
  // Four steps per cycle, a quarter interval apart.
  while (frames_since_churn_ >= w_.churn_interval / 4) {
    frames_since_churn_ -= w_.churn_interval / 4;
    churn_step();
  }
}

void Bench::settle() {
  {
    NB_SPAN(kDrain);
    node_->drain_datapath();
  }
  NB_SPAN(kSimRun);
  sim_events_ += node_->simulator().run();
}

std::size_t Bench::closed_round(bool measured) {
  std::vector<PacketBurst> bursts;
  std::vector<std::string> ports;
  const std::uint32_t first_seq = next_seq_;
  prepare_round(bursts, ports);
  inject_round(bursts, ports, first_seq, measured);
  verify_samples();
  return kRoundBursts * kBurst;
}

void Bench::inject_round(std::vector<PacketBurst>& bursts,
                         const std::vector<std::string>& ports,
                         std::uint32_t first_seq, bool measured) {
  const bool inline_node = w_.workers == 0;

  const DatapathCounters d0 = read_datapath_counters();
  const std::int64_t c0 = cpu_ns();
  const std::int64_t t0 = now_ns();
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    NB_SET_BURST(first_seq / kBurst + b);
    {
      NB_SPAN(kInjectBurst);
      (void)node_->inject_burst(ports[b], std::move(bursts[b]));
    }
    if (inline_node) {
      NB_SPAN(kSimRun);
      sim_events_ += node_->simulator().run();
    }
    if (measured) after_traffic(kBurst);
  }
  settle();
  const std::int64_t t1 = now_ns();
  const std::int64_t c1 = cpu_ns();
  const DatapathCounters d1 = read_datapath_counters();

  const std::size_t frames = kRoundBursts * kBurst;
  offered_ += frames;
  if (measured) {
    closed_dp_.pool_allocs += d1.pool_allocs - d0.pool_allocs;
    closed_dp_.pool_heap_events += d1.pool_heap_events - d0.pool_heap_events;
    closed_dp_.cross_worker_frees +=
        d1.cross_worker_frees - d0.cross_worker_frees;
    closed_dp_.heap += d1.heap - d0.heap;
    closed_dp_.crypto_calls += d1.crypto_calls - d0.crypto_calls;
    closed_dp_.mb_calls += d1.mb_calls - d0.mb_calls;
    closed_dp_.mb_lanes += d1.mb_lanes - d0.mb_lanes;
    const double dt = static_cast<double>(t1 - t0);
    round_mpps_.push_back(static_cast<double>(frames) / dt * 1e3);
    round_cpu_ns_.push_back(static_cast<double>(c1 - c0) /
                            static_cast<double>(frames));
    closed_frames_ += frames;
    closed_wall_ns_ += t1 - t0;
  }
}

void Bench::closed_phase(double seconds) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    closed_round(true);
#ifdef NODEBENCH_TRACE
    if (trace::nearly_full()) break;
#endif
  } while (now_ns() < end);
}

void Bench::open_phase(double seconds) {
  const double period = 1e9 / w_.offered_fps;
  const bool inline_node = w_.workers == 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<PacketBuffer> frames(kSegmentFrames);
  std::vector<std::string> ports(kSegmentFrames);
  std::vector<std::vector<std::uint32_t>> sent(tenants_.size());
  for (auto& s : sent) s.reserve(kSegmentFrames);
  std::vector<float> lag;
  lag.reserve(kSegmentFrames);

  do {
    const std::uint32_t first = next_seq_;
    for (auto& s : sent) s.clear();
    lag.clear();
    {
      NB_UNTRACED();
      for (std::size_t i = 0; i < kSegmentFrames; ++i) {
        const std::uint32_t index = order_[cursor_++ % order_.size()];
        if (!templates_[index].down) {
          sent[templates_[index].tenant].push_back(next_seq_);
        }
        frames[i] = make_frame(index, next_seq_++, &ports[i]);
      }
    }
    for (Shard& s : sink_.shards()) s.records.clear();
    sink_.set_recording(true);
    const std::int64_t t0 = now_ns() + 20000;
    auto due = [&](std::size_t i) {
      return t0 + static_cast<std::int64_t>(static_cast<double>(i) * period);
    };
    std::size_t i = 0;
    while (i < kSegmentFrames) {
      const std::int64_t t = now_ns();
      // Plain spin: under KVM a PAUSE loop can trigger pause-loop exits
      // that hand the vCPU away.
      if (t < due(i)) continue;
      std::size_t j = i;
      PacketBurst burst;
      burst.reserve(kBurst);
      while (j < kSegmentFrames && j - i < kBurst && due(j) <= t &&
             ports[j] == ports[i]) {
        burst.push_back(std::move(frames[j]));
        ++j;
      }
      lag.push_back(static_cast<float>(t - due(i)) / 1e3F);
      NB_SET_BURST((first + i) / kBurst);
      {
        NB_SPAN(kInjectBurst);
        (void)node_->inject_burst(ports[i], std::move(burst));
      }
      if (inline_node) {
        NB_SPAN(kSimRun);
        sim_events_ += node_->simulator().run();
      }
      after_traffic(j - i);
      i = j;
    }
    settle();
    sink_.set_recording(false);
    offered_ += kSegmentFrames;
    account_latency(t0, period, first, sent);
    segment_lag_us_.push_back(nodebench::tail_percentile(lag, 99.0).value);
    verify_samples();
  } while (now_ns() < end);
}

void Bench::account_latency(
    std::int64_t t0, double period, std::uint32_t first,
    const std::vector<std::vector<std::uint32_t>>& sent) {
  std::vector<std::size_t> next(sent.size(), 0);
  std::vector<float>& window = segment_latency_;
  window.clear();
  for (Shard& s : sink_.shards()) {
    for (const Record& r : s.records) {
      std::uint32_t seq = 0;
      if ((r.id & kEspId) != 0) {
        // ESP hides the sequence number; a tenant's frames leave in the
        // order they were sent (one SA, FIFO chain), so the k-th ESP frame
        // of a tenant is its k-th frame sent. Sampled frames are opened by
        // the gateway and their inner sequence numbers checked.
        const auto spi = static_cast<std::uint32_t>((r.id >> 32) & 0x7FFFFFFF);
        auto it = tenant_of_spi_.find(spi);
        if (it == tenant_of_spi_.end()) continue;  // churn tenant
        const std::uint32_t t = it->second;
        if (next[t] >= sent[t].size()) {
          ++unmatched_records_;
          continue;
        }
        seq = sent[t][next[t]++];
      } else {
        seq = static_cast<std::uint32_t>(r.id);
      }
      const std::uint32_t k = seq - first;
      if (k >= kSegmentFrames) {
        ++unmatched_records_;
        continue;
      }
      const double due =
          static_cast<double>(t0) + static_cast<double>(k) * period;
      window.push_back(
          static_cast<float>((static_cast<double>(r.at) - due) / 1e3));
    }
    if (s.record_overflow != 0) unmatched_records_ += s.record_overflow;
    s.record_overflow = 0;
  }
  // Every frame of a full segment (kSegmentFrames, so 10 lie beyond its
  // p99) has a record; fewer means frames were lost, which report() fails.
  const nodebench::Tail p99 = nodebench::tail_percentile(window, 99.0);
  if (p99.pct == 99.0) {
    segment_p99_us_.push_back(p99.value);
    segment_p50_us_.push_back(nodebench::percentile(window, 50.0));
  }
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

void Bench::timed_op(std::vector<double>& samples, const util::Status& status,
                     std::int64_t t0) {
  const std::int64_t t1 = now_ns();
  ++control_ops_;
  if (!status.is_ok()) {
    ++control_failed_;
    std::fprintf(stderr, "control op failed: %s\n",
                 status.to_string().c_str());
    return;
  }
  samples.push_back(static_cast<double>(t1 - t0) / 1e3);
}

void Bench::churn_step() {
  const Tenant t = churn_tenant(churn_cycle_);
  core::LocalOrchestrator& orch = node_->orchestrator();
  switch (churn_step_) {
    case 0: {
      const nffg::NfFg graph = tenant_graph(Chain::kCpe, t);
      const std::int64_t t0 = now_ns();
      util::Status st = util::Status::ok();
      {
        NB_SPAN(kDeploy);
        auto report = orch.deploy(graph);
        if (!report) st = report.status();
      }
      timed_op(deploy_us_, st, t0);
      churn_deployed_ = st.is_ok();
      break;
    }
    case 1: {
      if (!churn_deployed_ || w_.churn_interval == 0) break;
      PacketBurst burst;
      for (std::size_t i = 0; i < kBurst; ++i) {
        std::string port;
        PacketBuffer frame = make_frame(
            templates_.size() - kChurnTemplates + i % kChurnTemplates,
            next_seq_++, &port);
        packet::set_vlan(frame, t.vlan);
        burst.push_back(std::move(frame));
      }
      offered_ += kBurst;
      {
        NB_SPAN(kInjectBurst);
        (void)node_->inject_burst("eth0", std::move(burst));
      }
      settle();
      break;
    }
    case 2: {
      if (!churn_deployed_) break;
      const std::int64_t t0 = now_ns();
      util::Status st = util::Status::ok();
      {
        NB_SPAN(kUpdateNf);
        st = orch.update_nf(
            t.graph_id, "fw",
            {{"policy", "accept"},
             {"rule.1", "drop,any,any,tcp,23"},
             {"rule.2", "drop,any,any,udp," +
                            std::to_string(6000 + churn_cycle_ % 1000)}});
      }
      if (st.is_ok()) {
        NB_SPAN(kUpdateNf);
        st = orch.update_nf(
            t.graph_id, "vpn",
            {{"rekey_spi_out", std::to_string(t.spi_out + 0x400000)},
             {"rekey_spi_in", std::to_string(t.spi_in + 0x400000)},
             {"rekey_enc_key", t.key_hex}});
      }
      // One sample per cycle covers both calls: timed apart, the two
      // kinds of call form two clusters and the median of their 50/50 mix
      // falls in the gap between them.
      timed_op(update_us_, st, t0);
      break;
    }
    case 3: {
      if (!churn_deployed_) break;
      if (nfswitch::Lsi* lsi = node_->network().graph_lsi(t.graph_id)) {
        gone_lsi_passes_ += lsi->processed_packets();
        gone_cache_hits_ += lsi->flow_table().cache_hits();
        gone_cache_lookups_ += lsi->flow_table().cache_lookups();
      }
      const std::int64_t t0 = now_ns();
      util::Status st = util::Status::ok();
      {
        NB_SPAN(kRemove);
        st = orch.remove(t.graph_id);
      }
      timed_op(remove_us_, st, t0);
      churn_deployed_ = false;
      break;
    }
    default:
      break;
  }
  if (++churn_step_ == 4) {
    churn_step_ = 0;
    ++churn_cycle_;
  }
}

void Bench::control_phase(double seconds) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    for (int i = 0; i < 4; ++i) churn_step();
  } while (now_ns() < end);
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

void Bench::verify_samples() {
  NB_UNTRACED();
  for (Shard& s : sink_.shards()) {
    for (PacketBuffer& frame : s.samples) {
      ++verified_;
      if (!verify_frame(frame)) ++mismatched_;
    }
    s.samples.clear();
  }
}

bool Bench::verify_frame(PacketBuffer& frame) {
  auto fail = [&](const char* why) {
    if (first_mismatch_.empty()) first_mismatch_ = why;
    return false;
  };
  auto w = parse_wire(frame.data());
  if (!w || !w->vlan) return fail("delivered frame is not VLAN-tagged IPv4");
  const std::uint16_t vlan = *w->vlan;

  if (vlan >= kChurnVlanBase) {
    // Churn tenant: headers only (its gateway context would have to follow
    // every cycle's rekey); the same code path is opened end to end on
    // the steady tenants.
    if (w->proto != 50) return fail("churn frame is not ESP");
    const std::uint32_t spi = load_u32(&frame.data()[w->l4]);
    if (spi < 0x100000 || spi >= 0x200000 + 0x400000) {
      return fail("churn frame carries an unknown SPI");
    }
    return true;
  }
  if (vlan < kTenantVlanBase || vlan >= kTenantVlanBase + tenants_.size()) {
    return fail("delivered frame carries an unknown VLAN");
  }
  const std::uint32_t tenant = vlan - kTenantVlanBase;
  const Tenant& t = tenants_[tenant];

  PacketBuffer inner;
  if (w->proto == 50) {
    // Encapsulated: the remote gateway must open it to the original.
    if (load_u32(&frame.data()[w->l3 + 16]) != t.peer_ip.value) {
      return fail("ESP outer destination is not the tenant's gateway");
    }
    packet::set_vlan(frame, std::nullopt);
    auto out = gateway_->process(tenant, 1, 0, std::move(frame));
    if (out.size() != 1 || out[0].port != 0) {
      return fail("gateway could not open an ESP frame");
    }
    inner = std::move(out[0].frame);
  } else {
    inner = std::move(frame);
  }
  auto iw = parse_wire(inner.data());
  if (!iw || iw->proto != 17) return fail("inner frame is not UDP/IPv4");
  const std::span<const std::uint8_t> got = inner.data();
  const std::size_t payload_at = iw->l4 + 8;
  if (got.size() < payload_at + 8) return fail("inner frame too short");
  const std::uint32_t index = load_u32(&got[payload_at]);
  if (index >= templates_.size()) return fail("unknown template index");
  const Template& tpl = templates_[index];
  if (tpl.tenant != tenant) return fail("frame left on another tenant's VLAN");

  const std::span<const std::uint8_t> want = tpl.frame.data();
  auto tw = parse_wire(want);
  const std::size_t want_payload = tw->l4 + 8;
  if (got.size() - payload_at != want.size() - want_payload) {
    return fail("payload length changed");
  }
  // Payload: equal to the template except the stamped sequence number.
  if (std::memcmp(&got[payload_at], &want[want_payload], 4) != 0 ||
      std::memcmp(&got[payload_at + 8], &want[want_payload + 8],
                  want.size() - want_payload - 8) != 0) {
    return fail("payload bytes differ from the original");
  }
  // Destination address and port never change.
  if (std::memcmp(&got[iw->l3 + 16], &want[tw->l3 + 16], 4) != 0 ||
      std::memcmp(&got[iw->l4 + 2], &want[tw->l4 + 2], 2) != 0) {
    return fail("destination rewritten");
  }
  const bool natted = w_.chain == Chain::kCpe && !tpl.down;
  if (natted) {
    if (load_u32(&got[iw->l3 + 12]) != t.ext_ip.value) {
      return fail("NAT'd source is not the tenant's external_ip");
    }
  } else if (std::memcmp(&got[iw->l3 + 12], &want[tw->l3 + 12], 4) != 0 ||
             std::memcmp(&got[iw->l4], &want[tw->l4], 2) != 0) {
    return fail("source rewritten on a chain without NAT");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer counters
// ---------------------------------------------------------------------------

Counters Bench::read_counters() {
  Counters c;
  core::NetworkManager& net = node_->network();
  auto add_lsi = [&](const nfswitch::Lsi& lsi) {
    c.lsi_passes += lsi.processed_packets();
    c.cache_hits += lsi.flow_table().cache_hits();
    c.cache_lookups += lsi.flow_table().cache_lookups();
  };
  add_lsi(net.base_lsi());
  for (const Tenant& t : tenants_) {
    if (const nfswitch::Lsi* lsi = net.graph_lsi(t.graph_id)) add_lsi(*lsi);
  }
  if (churn_deployed_) {
    if (const nfswitch::Lsi* lsi =
            net.graph_lsi(churn_tenant(churn_cycle_).graph_id)) {
      add_lsi(*lsi);
    }
  }
  c.lsi_passes += gone_lsi_passes_;
  c.cache_hits += gone_cache_hits_;
  c.cache_lookups += gone_cache_lookups_;
  if (w_.chain != Chain::kFwd) {
    auto stats = node_->orchestrator().nf_stats(tenants_[0].graph_id, "vpn");
    if (stats) {
      if (const json::Value* ep = stats->as_object().find("endpoint")) {
        for (const char* key : {"auth_failures", "replay_drops", "malformed"}) {
          if (const json::Value* v = ep->as_object().find(key)) {
            c.ipsec_drops += static_cast<std::uint64_t>(v->as_number());
          }
        }
      }
    }
  }
  if (exec::DatapathExecutor* dp = node_->datapath()) {
    c.ingress_drops = dp->ingress_drops();
  }
  return c;
}

DatapathCounters Bench::read_datapath_counters() {
  DatapathCounters c;
  const packet::MbufPoolStats pool = packet::MbufPool::global_stats();
  c.pool_allocs = pool.segment_allocs;
  c.pool_heap_events = pool.slab_allocs + pool.heap_allocs;
  c.cross_worker_frees = pool.cross_worker_frees;
#ifdef NODEBENCH_TRACE
  c.heap = heap_allocs();
  c.crypto_calls = crypto_->counts().calls.load();
  c.mb_calls = crypto_->counts().mb_calls.load();
  c.mb_lanes = crypto_->counts().mb_lanes.load();
#endif
  return c;
}

#ifdef NODEBENCH_TRACE

void Bench::accumulate_spans(bool closed) {
  std::array<double, kSpanNames>& self_ns = span_self_ns_;
  std::array<double, kSpanNames>& total_ns = span_total_ns_;
  layer_["trace.dropped_spans"] += static_cast<double>(trace::dropped());
  const auto buffers = trace::buffers();
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<trace::Span>& spans = *buffers[b];
    nesting_errors_ += trace::nesting_errors(spans);
    const std::vector<std::int64_t> self = trace::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (closed) {
        const auto n = static_cast<std::size_t>(spans[i].name);
        self_ns[n] += static_cast<double>(self[i]);
        total_ns[n] += static_cast<double>(spans[i].end - spans[i].start);
        // Buffer 0 belongs to the generator thread: the first span of the
        // run (a setup deploy) is recorded there.
        if (b == 0) span_main_self_ns_ += static_cast<double>(self[i]);
      }
      switch (spans[i].name) {
        case trace::Name::kDeploy:
          deploy_self_us_.push_back(static_cast<double>(self[i]) / 1e3);
          break;
        case trace::Name::kRemove:
          remove_self_us_.push_back(static_cast<double>(self[i]) / 1e3);
          break;
        case trace::Name::kNfConfigure:
          configure_us_.push_back(
              static_cast<double>(spans[i].end - spans[i].start) / 1e3);
          break;
        default:
          break;
      }
    }
  }
}

void Bench::span_layers() {
  const std::array<double, kSpanNames>& self_ns = span_self_ns_;
  const std::array<double, kSpanNames>& total_ns = span_total_ns_;
  const double frames = static_cast<double>(closed_frames_);
  auto self = [&](trace::Name n) {
    return self_ns[static_cast<std::size_t>(n)] / frames;
  };
  const bool inline_node = w_.workers == 0;
  layer_["exec.submit_ns_per_frame"] =
      inline_node ? 0.0 : self(trace::Name::kInjectBurst);
  layer_["switch.inject_ns_per_frame"] =
      inline_node ? self(trace::Name::kInjectBurst) : 0.0;
  layer_["sim.run_self_ns_per_frame"] = self(trace::Name::kSimRun);
  layer_["nnf.firewall.self_ns_per_frame"] = self(trace::Name::kNfFirewall);
  layer_["nnf.nat.self_ns_per_frame"] = self(trace::Name::kNfNat);
  layer_["nnf.ipsec.self_ns_per_frame"] = self(trace::Name::kNfIpsec);
  layer_["crypto.gcm_ns_per_frame"] =
      (total_ns[static_cast<std::size_t>(trace::Name::kGcmCrypt)] +
       total_ns[static_cast<std::size_t>(trace::Name::kGcmCryptMb)] +
       total_ns[static_cast<std::size_t>(trace::Name::kGhash)]) /
      frames;
  layer_["packet.egress_free_ns_per_frame"] =
      total_ns[static_cast<std::size_t>(trace::Name::kEgressFree)] / frames;
  layer_["trace.coverage"] =
      span_main_self_ns_ / static_cast<double>(closed_wall_ns_);
}

/// Echo function for the adaptation probe: every frame leaves on the
/// other port, so the probe times the layer's demux and re-marking.
class EchoNf final : public nnf::NetworkFunction {
 public:
  std::string_view type() const override { return "echo"; }
  std::size_t num_ports() const override { return 2; }
  util::Status configure(nnf::ContextId, const nnf::NfConfig&) override {
    return util::Status::ok();
  }
  std::vector<nnf::NfOutput> process(nnf::ContextId, nnf::NfPortIndex in,
                                     sim::SimTime,
                                     PacketBuffer&& frame) override {
    std::vector<nnf::NfOutput> out;
    out.push_back(nnf::NfOutput{1 - in, std::move(frame)});
    return out;
  }
};

double Bench::classify_probe() {
  // A copy of LSI-0: same port ids, same rules, peers that drop.
  const nfswitch::Lsi& base = node_->network().base_lsi();
  nfswitch::Lsi probe(999, "probe");
  nfswitch::PortId max_port = 0;
  for (nfswitch::PortId p : base.ports()) max_port = std::max(max_port, p);
  std::uint64_t dropped = 0;
  for (nfswitch::PortId p = 1; p <= max_port; ++p) {
    auto id = probe.add_port("p" + std::to_string(p));
    (void)probe.set_port_peer(id.value(), [&](PacketBuffer&&) { ++dropped; });
    (void)probe.set_port_burst_peer(
        id.value(), [&](PacketBurst&& b) { dropped += b.size(); });
  }
  for (const nfswitch::FlowEntry* e : base.flow_table().entries()) {
    probe.flow_table().add(e->priority, e->match, e->actions, e->cookie);
  }
  std::vector<double> ns;
  for (int rep = 0; rep < 16; ++rep) {
    std::vector<PacketBurst> bursts;
    std::vector<std::string> ports;
    prepare_round(bursts, ports);
    std::vector<nfswitch::PortId> ids;
    for (const std::string& p : ports) {
      ids.push_back(node_->network().physical_port(p).value());
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      probe.receive_burst(ids[b], std::move(bursts[b]));
    }
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(kRoundBursts * kBurst));
  }
  return nodebench::median(ns);
}

double Bench::adaptation_probe() {
  if (w_.chain != Chain::kCpe) return 0.0;  // no single-interface NNF
  EchoNf echo;
  nnf::AdaptationLayer layer(echo);
  std::uint64_t emitted = 0;
  layer.set_burst_transmit([&](PacketBurst&& b) { emitted += b.size(); });
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const auto ctx = static_cast<nnf::ContextId>(t);
    if (ctx != nnf::kDefaultContext) (void)echo.add_context(ctx);
    (void)layer.bind(ctx, 0, static_cast<nnf::Mark>(1000 + 2 * t));
    (void)layer.bind(ctx, 1, static_cast<nnf::Mark>(1001 + 2 * t));
  }
  std::vector<double> ns;
  for (int rep = 0; rep < 16; ++rep) {
    std::vector<PacketBurst> bursts;
    std::vector<std::string> ports;
    prepare_round(bursts, ports);
    for (PacketBurst& burst : bursts) {
      for (PacketBuffer& f : burst) {
        const std::uint32_t index =
            load_u32(&f.data()[kPayloadOffset]);
        packet::set_vlan(
            f, static_cast<nnf::Mark>(1000 + 2 * templates_[index].tenant));
      }
    }
    const std::int64_t t0 = now_ns();
    for (PacketBurst& burst : bursts) layer.receive_burst(0, std::move(burst));
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(kRoundBursts * kBurst));
  }
  return nodebench::median(ns);
}

#endif  // NODEBENCH_TRACE

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

int Bench::run() {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "refusing to run: built without optimisation (%s); numbers "
               "from this build are meaningless\n",
               NODEBENCH_BUILD_TYPE);
  return 3;
#endif
  if (w_.workers + 1 > cpus_.size()) {
    std::fprintf(stderr,
                 "refusing to run %s: %zu datapath workers + 1 generator "
                 "thread exceed the %zu CPUs available\n",
                 w_.name, w_.workers, cpus_.size());
    return 3;
  }
  rng_.seed(opt_.seed);

#ifdef NODEBENCH_TRACE
  crypto_ = std::make_unique<TracedCrypto>(crypto::active_backend());
  crypto_override_ = std::make_unique<crypto::ScopedBackendOverride>(*crypto_);
#endif

  // The frame pool is built once, outside setup_s.
  build_tenants();
  build_templates();

  // Every setup and every slice moves the generator and the datapath
  // workers to the next CPUs in turn, one thread per CPU. The vCPUs of a
  // shared host do not run equally fast (another tenant may load one's
  // physical core for minutes); rotating makes each run sample all of
  // them alike instead of whichever ones the scheduler picked.
  std::size_t rotation = static_cast<std::size_t>(opt_.seed);
  auto pin_main = [&]() { set_affinity(0, {cpus_[rotation % cpus_.size()]}); };
  auto pin_workers = [&]() {
    std::size_t i = 1;
    for (pid_t tid : other_threads()) {
      set_affinity(tid, {cpus_[(rotation + i++) % cpus_.size()]});
    }
    ++rotation;
  };

  // Each setup is timed on a CPU chosen before it starts; pinning the
  // workers the node creates, building the warm-up frames (and, on
  // esp_1408B, sealing them at the gateway) and checking its output lie
  // outside the timed region.
  auto setup = [&]() {
    if (node_) {
      // Finish the churn cycle in flight so every deploy has its remove.
      while (churn_step_ != 0) churn_step();
      settle();
      node_.reset();
    }
    configure_gateway();
    std::vector<PacketBurst> bursts;
    std::vector<std::string> ports;
    const std::uint32_t first_seq = next_seq_;
    prepare_round(bursts, ports);
    pin_main();
    const std::int64_t t0 = now_ns();
    make_node();
    const std::int64_t t1 = now_ns();
    pin_workers();
    const std::int64_t t2 = now_ns();
    deploy_tenants();
    inject_round(bursts, ports, first_seq, false);
    setup_s_.push_back(static_cast<double>(t1 - t0 + now_ns() - t2) / 1e9);
    verify_samples();
  };

  // The measured seconds are cut into kSlices slices, each running the
  // closed, open and control phases in turn, so that every metric samples
  // the whole run: the shared host's speed drifts over seconds, and one
  // contiguous block per phase would tie each metric to one stretch of it.
  const bool churn = w_.churn_interval != 0;
  const double slice = opt_.seconds / kSlices;
  const double closed_s = opt_.closed_only ? slice
                          : churn          ? slice * 0.5
                                           : slice * 0.45;
  const double open_s = churn ? slice * 0.5 : slice * 0.4;
  const double control_s = slice - closed_s - open_s;

  // Per-frame latency lives only for one segment, so the benchmark's
  // samples add well under a megabyte to peak_rss_mb.
  segment_latency_.reserve(kSegmentFrames * 2);

  for (std::size_t k = 0; k < kSlices; ++k) {
    // Setups are spread over the run, like every other sample: one burst
    // of them at the start would tie setup_s to the host's speed in that
    // moment. A fresh node per epoch, not per slice, leaves each node
    // seconds of traffic and churn in which to show state that builds up.
    if (k % (kSlices / kEpochs) == 0 && (k == 0 || !opt_.closed_only)) {
      const std::size_t n = opt_.closed_only ? 1 : kEpochSetups;
      for (std::size_t r = 0; r < n; ++r) setup();
    }
    slice_marks_.push_back(mark());
    pin_main();
    pin_workers();
#ifdef NODEBENCH_TRACE
    trace::clear();
#endif
    const Counters c0 = read_counters();
    const std::uint64_t e0 = sim_events_;
    closed_phase(closed_s);
    const Counters c1 = read_counters();
    closed_node_.lsi_passes += c1.lsi_passes - c0.lsi_passes;
    closed_node_.cache_hits += c1.cache_hits - c0.cache_hits;
    closed_node_.cache_lookups += c1.cache_lookups - c0.cache_lookups;
    closed_node_.ipsec_drops += c1.ipsec_drops - c0.ipsec_drops;
    closed_node_.ingress_drops += c1.ingress_drops - c0.ingress_drops;
    closed_events_ += sim_events_ - e0;
#ifdef NODEBENCH_TRACE
    accumulate_spans(true);
    if (k == 0) {
      if (!opt_.trace_out.empty() && !trace::write(opt_.trace_out)) {
        std::fprintf(stderr, "could not write %s\n", opt_.trace_out.c_str());
      }
      layer_["switch.classify_ns_per_frame"] = classify_probe();
      layer_["nnf.adaptation_ns_per_frame"] = adaptation_probe();
    }
#endif
    if (opt_.closed_only) continue;
    {
      NB_UNTRACED();
      open_phase(open_s);
    }
    if (!churn) {
#ifdef NODEBENCH_TRACE
      trace::clear();
#endif
      control_phase(control_s);
#ifdef NODEBENCH_TRACE
      accumulate_spans(false);
#endif
    }
  }
  slice_marks_.push_back(mark());
  settle();
  while (churn_step_ != 0) churn_step();
  return report(stdout) ? 0 : 1;
}

SliceMark Bench::mark() const {
  return SliceMark{round_mpps_.size(), segment_p50_us_.size(),
                   deploy_us_.size(), update_us_.size(), remove_us_.size()};
}

double Bench::slice_figure(const std::vector<double>& all,
                           std::size_t SliceMark::*field,
                           bool higher_is_better) const {
  std::vector<double> medians;
  for (std::size_t k = 0; k + 1 < slice_marks_.size(); ++k) {
    const std::size_t begin = slice_marks_[k].*field;
    const std::size_t end = slice_marks_[k + 1].*field;
    if (begin == end) continue;
    medians.push_back(nodebench::median(
        std::vector<double>(all.begin() + static_cast<std::ptrdiff_t>(begin),
                            all.begin() + static_cast<std::ptrdiff_t>(end))));
  }
  return nodebench::percentile(medians, higher_is_better ? 10.0 : 90.0);
}

bool Bench::report(std::FILE* out) {
  const double frames = static_cast<double>(closed_frames_);
  // Every frame offered must come out exactly once and match its original;
  // a frame lost, an extra delivery, an egress record that matches no
  // frame sent and a wrong frame each count as one failure.
  const std::uint64_t delivered = sink_.delivered();
  const std::uint64_t lost = offered_ > delivered ? offered_ - delivered : 0;
  const std::uint64_t extra = delivered > offered_ ? delivered - offered_ : 0;
  const std::uint64_t wrong = lost + extra + unmatched_records_ + mismatched_;
  const double loss_frac =
      static_cast<double>(wrong) / static_cast<double>(offered_);

  // Each timing is the slice median of its samples, taken at the slice
  // that all but a tenth of the slices beat: the 10th percentile over
  // slices of a rate, the 90th of a cost. The shared host's memory system
  // slows the node by up to 1.8x for stretches of 0.1 s to minutes; the
  // share of a run it covers changes from run to run, and a median over
  // slices flips between the two speeds when that share is near a half.
  // Nearly every run has a slow tenth, so this figure moves far less, and
  // a program that got slower in any tenth of the run moves it too.
  std::map<std::string, double> m;
  std::map<std::string, std::string> note;
  const std::string over =
      "worst-decile slice of " + std::to_string(slice_marks_.size() - 1) +
      ", slice medians of ";
  const double mpps = slice_figure(round_mpps_, &SliceMark::rounds, true);
  m["throughput_mpps"] = mpps;
  note["throughput_mpps"] =
      over + std::to_string(round_mpps_.size()) + " rounds";
  m["goodput_mbps"] = mpps * static_cast<double>(w_.payload) * 8.0;
  m["cpu_ns_per_frame"] =
      slice_figure(round_cpu_ns_, &SliceMark::rounds, false);
  if (!segment_p50_us_.empty()) {
    m["latency_p50_us"] =
        slice_figure(segment_p50_us_, &SliceMark::segments, false);
    m["latency_p99_us"] =
        slice_figure(segment_p99_us_, &SliceMark::segments, false);
    note["latency_p50_us"] = over + std::to_string(segment_p50_us_.size()) +
                             " per-segment p50s";
    note["latency_p99_us"] = over + std::to_string(segment_p99_us_.size()) +
                             " per-segment p99s, " +
                             std::to_string(kSegmentFrames) + " frames each";
  }
  m["loss_frac"] = loss_frac;
  m["setup_s"] = nodebench::median(setup_s_);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (!deploy_us_.empty()) {
    m["deploy_p50_us"] = slice_figure(deploy_us_, &SliceMark::deploy, false);
    note["deploy_p50_us"] =
        over + std::to_string(deploy_us_.size()) + " deploys";
    std::vector<double> deploys = deploy_us_;
    const nodebench::Tail p99 = nodebench::tail_percentile(deploys, 99.0);
    m["deploy_p99_us"] = p99.value;
    note["deploy_p99_us"] = "p" + std::to_string(p99.pct) + " of " +
                            std::to_string(p99.samples) + " deploys";
  }
  if (!update_us_.empty()) {
    m["update_p50_us"] = slice_figure(update_us_, &SliceMark::update, false);
  }
  if (!remove_us_.empty()) {
    m["remove_p50_us"] = slice_figure(remove_us_, &SliceMark::remove, false);
  }
  m["control_fail_frac"] =
      control_ops_ == 0 ? 0.0
                        : static_cast<double>(control_failed_) /
                              static_cast<double>(control_ops_);

  // Per-layer counters over the closed-loop phase.
  auto per_frame = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / frames;
  };
  layer_["switch.lsi_passes_per_frame"] = per_frame(0, closed_node_.lsi_passes);
  layer_["sim.events_per_frame"] = per_frame(0, closed_events_);
  layer_["switch.microflow_hit_ratio"] =
      closed_node_.cache_lookups == 0
          ? 0.0
          : static_cast<double>(closed_node_.cache_hits) /
                static_cast<double>(closed_node_.cache_lookups);
  layer_["packet.pool_allocs_per_frame"] = per_frame(0, closed_dp_.pool_allocs);
  layer_["packet.pool_heap_events_per_frame"] =
      per_frame(0, closed_dp_.pool_heap_events);
  layer_["packet.cross_worker_frees_per_frame"] =
      per_frame(0, closed_dp_.cross_worker_frees);
  layer_["nnf.ipsec.drops"] = static_cast<double>(closed_node_.ipsec_drops);
  layer_["exec.ingress_drops"] =
      static_cast<double>(closed_node_.ingress_drops);
  {
    std::uint64_t total = 0;
    std::uint64_t least = ~std::uint64_t{0};
    const std::size_t first = w_.workers == 0 ? 0 : 1;
    const std::size_t last = w_.workers == 0 ? 0 : w_.workers;
    for (std::size_t s = first; s <= last; ++s) {
      const std::uint64_t d = sink_.shards()[s].delivered;
      total += d;
      least = std::min(least, d);
    }
    layer_["exec.worker_min_share"] =
        total == 0 ? 0.0
                   : static_cast<double>(least) / static_cast<double>(total);
  }
  layer_["core.lsi0_rules"] =
      static_cast<double>(node_->network().base_lsi().flow_table().size());
  if (!segment_lag_us_.empty()) {
    layer_["bench.generator_lag_us_p99"] = nodebench::median(segment_lag_us_);
  }
#ifdef NODEBENCH_TRACE
  span_layers();
  layer_["packet.heap_allocs_per_frame"] = per_frame(0, closed_dp_.heap);
  layer_["crypto.calls_per_frame"] = per_frame(0, closed_dp_.crypto_calls);
  layer_["crypto.mb_lanes_per_call"] =
      closed_dp_.mb_calls == 0
          ? 0.0
          : static_cast<double>(closed_dp_.mb_lanes) /
                static_cast<double>(closed_dp_.mb_calls);
  layer_["core.deploy_self_us"] = nodebench::median(deploy_self_us_);
  layer_["core.remove_self_us"] = nodebench::median(remove_self_us_);
  layer_["nnf.configure_us"] = nodebench::median(configure_us_);
  layer_["trace.nesting_errors"] = static_cast<double>(nesting_errors_);
  layer_["trace.throughput_mpps"] = mpps;
#endif

  const bool correct = wrong == 0
#ifdef NODEBENCH_TRACE
                       && nesting_errors_ == 0
#endif
      ;
  const std::uint64_t attempted = offered_ + control_ops_;
  const std::uint64_t failed = wrong + control_failed_;

  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"traced\": %s, \"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64,
               w_.name, opt_.seed,
#ifdef NODEBENCH_TRACE
               "true",
#else
               "false",
#endif
               correct ? "true" : "false", attempted, failed);
  std::fprintf(out,
               ", \"env\": {\"nproc\": %zu, \"crypto_backend\": \"%s\", "
               "\"cpu_features\": \"%s\", \"build_type\": \"%s\", "
               "\"datapath_workers\": %zu, \"offered_fps\": %.0f}",
               cpus_.size(),
               std::string(crypto::active_backend().name()).c_str(),
               util::cpu_feature_string().c_str(), NODEBENCH_BUILD_TYPE,
               w_.workers, w_.offered_fps);
  std::fprintf(out,
               ", \"counts\": {\"offered\": %" PRIu64 ", \"delivered\": %" PRIu64
               ", \"verified\": %" PRIu64 ", \"mismatched\": %" PRIu64
               ", \"unmatched_records\": %" PRIu64 ", \"control_ops\": %" PRIu64
               ", \"control_failed\": %" PRIu64 ", \"closed_frames\": %" PRIu64
               ", \"latency_samples\": %zu, \"setups\": %zu}",
               offered_, delivered, verified_, mismatched_, unmatched_records_,
               control_ops_, control_failed_, closed_frames_,
               segment_p50_us_.size() * kSegmentFrames, setup_s_.size());
  auto dump = [&](const char* key, const std::map<std::string, double>& map) {
    std::fprintf(out, ", \"%s\": {", key);
    bool first = true;
    for (const auto& [name, value] : map) {
      std::fprintf(out, "%s\"%s\": %.9g", first ? "" : ", ", name.c_str(),
                   value);
      first = false;
    }
    std::fprintf(out, "}");
  };
  dump("metrics", m);
  dump("layers", layer_);
  std::fprintf(out, ", \"notes\": {");
  bool first = true;
  for (const auto& [name, text] : note) {
    std::fprintf(out, "%s\"%s\": \"%s\"", first ? "" : ", ", name.c_str(),
                 text.c_str());
    first = false;
  }
  std::fprintf(out, "}, \"first_mismatch\": \"%s\"}\n",
               first_mismatch_.c_str());
  std::fflush(out);
  return correct;
}

int usage() {
  std::fprintf(stderr,
               "usage: nodebench --workload NAME --seed N --seconds S "
               "[--closed-only] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 2;
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value(), nullptr);
    } else if (arg == "--closed-only") {
      opt.closed_only = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else {
      return usage();
    }
  }
  if (opt.workload == nullptr || !(opt.seconds > 0.0)) return usage();
  Bench bench(opt);
  return bench.run();
}
