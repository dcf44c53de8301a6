// Experiment A1 — sharability ablation (paper §2).
//
// The paper argues a sharable NNF can serve several service graphs from
// one instance (marking + isolated internal paths). This bench quantifies
// what that buys: for 1..16 service graphs, compare
//   * shared native NNF (1 instance, N contexts)     — the paper's design
//   * dedicated Docker VNFs (N containers)           — the alternative
// on marginal RAM, activation latency, and node footprint.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_json.hpp"

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench main

namespace {

nffg::NfFg nat_graph(const std::string& id, int index,
                     std::optional<virt::BackendKind> hint) {
  nffg::NfFg graph = bench::chain_graph(id, "nat", hint);
  graph.nfs[0].config["external_ip"] =
      "203.0.113." + std::to_string(index + 1);
  graph.endpoints[0].vlan = static_cast<std::uint16_t>(100 + index);
  graph.endpoints[1].vlan = static_cast<std::uint16_t>(1100 + index);
  return graph;
}

struct Footprint {
  double ram_mb = 0.0;
  double total_boot_ms = 0.0;
  std::size_t namespaces = 0;
  std::size_t marks = 0;
  bool ok = true;
};

Footprint deploy_n(int n, std::optional<virt::BackendKind> hint) {
  core::UniversalNode node(bench::modelled_config());
  Footprint footprint;
  for (int i = 0; i < n; ++i) {
    auto report =
        node.orchestrator().deploy(nat_graph("g" + std::to_string(i), i,
                                             hint));
    if (!report) {
      footprint.ok = false;
      return footprint;
    }
    footprint.total_boot_ms +=
        static_cast<double>(report->placements[0].boot_time) / 1e6;
  }
  footprint.ram_mb =
      static_cast<double>(node.resources().ram().used()) / (1024.0 * 1024.0);
  footprint.namespaces = node.namespaces().count() - 1;  // minus root
  footprint.marks = node.marks().in_use();
  return footprint;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_cli(argc, argv);
  std::printf("=== A1: sharable NNF vs dedicated VNF instances (NAT) ===\n");
  std::printf("shared: 1 native instance, per-graph contexts + VLAN marks\n");
  std::printf("dedicated: one Docker container per graph\n\n");
  std::printf("%7s | %12s %12s %8s %7s | %12s %12s\n", "graphs",
              "sharedRAM", "dedicRAM", "ratio", "marks", "sharedBoot",
              "dedicBoot");
  std::printf("--------+--------------------------------------------------+"
              "--------------------------\n");

  bench::JsonReport report("bench_sharable_nnf");
  report.mark_modelled();
  const std::vector<int> graph_counts =
      bench::smoke_mode() ? std::vector<int>{1, 2}
                          : std::vector<int>{1, 2, 4, 8, 16};
  for (int n : graph_counts) {
    Footprint shared = deploy_n(n, virt::BackendKind::kNative);
    Footprint dedicated = deploy_n(n, virt::BackendKind::kDocker);
    if (!shared.ok || !dedicated.ok) {
      std::printf("%7d | deployment failed\n", n);
      continue;
    }
    std::printf("%7d | %9.1f MB %9.1f MB %7.1fx %7zu | %9.1f ms %9.1f ms\n",
                n, shared.ram_mb, dedicated.ram_mb,
                dedicated.ram_mb / shared.ram_mb, shared.marks,
                shared.total_boot_ms, dedicated.total_boot_ms);
    auto& row = report.add_metric("sharable_" + std::to_string(n),
                                  "shared_ram_mb", shared.ram_mb);
    row.extra.emplace_back("dedicated_ram_mb", dedicated.ram_mb);
    row.extra.emplace_back("ram_ratio", dedicated.ram_mb / shared.ram_mb);
    row.extra.emplace_back("shared_boot_ms", shared.total_boot_ms);
    row.extra.emplace_back("dedicated_boot_ms", dedicated.total_boot_ms);
  }

  std::printf("\nClaim under test: RAM and activation cost of the shared "
              "NNF grow by a\nper-context increment, not a per-process one; "
              "the dedicated-VNF column\ngrows linearly with full instance "
              "overhead.\n\n");
  report.emit();
  return 0;
}
