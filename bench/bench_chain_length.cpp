// Experiment A2 — chain-length ablation.
//
// A service chain of k forwarding NFs (k = 1..8) per backend. Each NF
// instance is its own service station (one core per NF, pipelined), so:
//   * saturation throughput is set by the bottleneck NF — roughly flat in
//     k, with the per-backend gap (VM < docker/native) persisting;
//   * end-to-end latency grows linearly in k, with a per-hop slope that
//     depends on the backend's per-packet path cost — this is where the
//     VM flavor hurts chained services most.
// Exception: the *native* firewall is a single shared instance (one
// netfilter), so all k hops serialize on one station — its throughput
// falls ~1/k while its RAM stays constant. The bench surfaces exactly this
// trade-off of the paper's sharable-NNF design.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench main

namespace {

nffg::NfFg chain_of(int k, virt::BackendKind backend) {
  nffg::NfFg graph;
  graph.id = "chain";
  graph.add_endpoint("lan", "eth0");
  graph.add_endpoint("wan", "eth1");
  for (int i = 0; i < k; ++i) {
    nffg::NfNode& nf = graph.add_nf("fw" + std::to_string(i), "firewall");
    nf.backend_hint = backend;
  }
  graph.connect("rin", nffg::endpoint_ref("lan"), nffg::nf_port("fw0", 0));
  for (int i = 0; i + 1 < k; ++i) {
    graph.connect("r" + std::to_string(i),
                  nffg::nf_port("fw" + std::to_string(i), 1),
                  nffg::nf_port("fw" + std::to_string(i + 1), 0));
  }
  graph.connect("rout", nffg::nf_port("fw" + std::to_string(k - 1), 1),
                nffg::endpoint_ref("wan"));
  return graph;
}

struct ChainResult {
  double goodput_mbps = -1.0;
  double latency_us = -1.0;
};

ChainResult run_chain(int k, virt::BackendKind backend) {
  ChainResult result;
  {
    // Capacity via binary search (adaptive-rate iPerf behaviour): in a
    // tandem through one shared server, blind saturation starves the
    // later hops, so "max rate with <1% loss" is the meaningful number.
    bool deploy_failed = false;
    const sim::SimTime warmup =
        bench::smoke_mode() ? 2 * sim::kMillisecond : 20 * sim::kMillisecond;
    const sim::SimTime duration = bench::smoke_mode()
                                      ? 20 * sim::kMillisecond
                                      : 200 * sim::kMillisecond;
    result.goodput_mbps = bench::measure_capacity_mbps(
        [&]() -> std::unique_ptr<core::UniversalNode> {
          auto node =
              std::make_unique<core::UniversalNode>(bench::modelled_config());
          if (!node->orchestrator().deploy(chain_of(k, backend))) {
            deploy_failed = true;
            return nullptr;
          }
          return node;
        },
        1408, 1000.0, 1.2e6, warmup, duration);
    if (deploy_failed) {
      ChainResult failed;
      return failed;  // goodput -1 marks "n/a" (e.g. k VMs exceed CPE RAM)
    }
  }
  {
    // Latency: 100 packets, widely spaced so queues stay empty.
    core::UniversalNode node(bench::modelled_config());
    if (!node.orchestrator().deploy(chain_of(k, backend))) return result;
    std::vector<sim::SimTime> in_times;
    std::vector<sim::SimTime> out_times;
    (void)node.set_egress("eth1", [&](packet::PacketBuffer&&) {
      out_times.push_back(node.simulator().now());
    });
    const int latency_packets = bench::smoke_mode() ? 10 : 100;
    for (int i = 0; i < latency_packets; ++i) {
      node.simulator().schedule_at(
          static_cast<sim::SimTime>(i) * sim::kMillisecond, [&node, i]() {
            packet::UdpFrameSpec spec;
            spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
            spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
            spec.src_port = 1000;
            spec.dst_port = static_cast<std::uint16_t>(2000 + i);
            static const std::vector<std::uint8_t> payload(1408, 0x5A);
            spec.payload = payload;
            (void)node.inject("eth0", packet::build_udp_frame(spec));
          });
      in_times.push_back(static_cast<sim::SimTime>(i) * sim::kMillisecond);
    }
    node.simulator().run();
    if (out_times.size() == in_times.size()) {
      double total = 0.0;
      for (std::size_t i = 0; i < out_times.size(); ++i) {
        total += static_cast<double>(out_times[i] - in_times[i]);
      }
      result.latency_us = total / static_cast<double>(out_times.size()) /
                          1000.0;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_cli(argc, argv);
  std::printf("=== A2: service chains of k firewall NFs (1408 B frames) "
              "===\n\n");
  std::printf("%3s | %21s | %21s | %21s | %21s\n", "k", "native (shared NNF)",
              "docker", "dpdk", "vm");
  std::printf("%3s | %10s %10s | %10s %10s | %10s %10s | %10s %10s\n", "",
              "Mbps", "us/pkt", "Mbps", "us/pkt", "Mbps", "us/pkt", "Mbps",
              "us/pkt");
  std::printf("----+-----------------------+----------------------+--------"
              "--------------+----------------------\n");
  auto cell = [](const ChainResult& r) {
    char buf[32];
    if (r.goodput_mbps < 0) {
      std::snprintf(buf, sizeof(buf), "%10s %10s", "n/a(RAM)", "-");
    } else {
      std::snprintf(buf, sizeof(buf), "%10.0f %10.2f", r.goodput_mbps,
                    r.latency_us);
    }
    return std::string(buf);
  };
  const std::vector<int> chain_lengths =
      bench::smoke_mode() ? std::vector<int>{1, 2}
                          : std::vector<int>{1, 2, 3, 4, 6, 8};
  bench::JsonReport report("bench_chain_length");
  report.mark_modelled();
  auto record = [&report](int k, const char* backend, const ChainResult& r) {
    auto& row = report.add_metric(
        "chain_" + std::to_string(k) + "_" + backend, "goodput_mbps",
        r.goodput_mbps);
    row.extra.emplace_back("latency_us", r.latency_us);
  };
  for (int k : chain_lengths) {
    const ChainResult native = run_chain(k, virt::BackendKind::kNative);
    const ChainResult docker = run_chain(k, virt::BackendKind::kDocker);
    const ChainResult dpdk = run_chain(k, virt::BackendKind::kDpdk);
    const ChainResult vm = run_chain(k, virt::BackendKind::kVm);
    std::printf("%3d | %s | %s | %s | %s\n", k, cell(native).c_str(),
                cell(docker).c_str(), cell(dpdk).c_str(), cell(vm).c_str());
    record(k, "native", native);
    record(k, "docker", docker);
    record(k, "dpdk", dpdk);
    record(k, "vm", vm);
  }
  std::printf(
      "\nReadings:\n"
      "  * docker/dpdk/vm: one instance per hop -> pipelined; throughput\n"
      "    ~flat in k (bottleneck NF), latency grows linearly with the\n"
      "    backend's per-hop path cost (vm slope is the largest).\n"
      "  * native: ONE shared netfilter instance hosts all k hops\n"
      "    (isolated contexts), so its throughput falls ~1/k while RAM and\n"
      "    activation stay per-context — the sharability trade-off.\n"
      "  * vm at k>=3: n/a — three 390 MB VMs exceed the 1 GB CPE, the\n"
      "    resource wall that motivates NNFs in the first place.\n\n");
  report.emit();
  return 0;
}
