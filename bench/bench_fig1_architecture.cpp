// Experiment F1 — exercises **Figure 1** (the compute-node architecture).
//
// Figure 1 is structural, not a data plot, so this bench regenerates the
// architecture's operational footprint: it deploys N NF-FGs with mixed
// driver technologies on one node and reports, per the figure's boxes:
//   * LSIs: one base LSI + one per graph, connected by virtual links
//   * flow rules installed per LSI by the traffic-steering manager
//   * compute-manager dispatches per management driver
//   * NNF sharing status from the catalog (instances vs serving graphs)
//   * network namespaces created by the NNF driver
#include <cstdio>

#include "bench_common.hpp"
#include "bench_json.hpp"

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench main

int main(int argc, char** argv) {
  bench::parse_cli(argc, argv);
  constexpr int kGraphs = 8;
  core::UniversalNodeConfig config = bench::modelled_config();
  config.physical_ports = {"eth0", "eth1"};
  core::UniversalNode node(config);

  std::printf("=== Figure 1: compute node architecture, %d NF-FGs ===\n\n",
              kGraphs);

  // Mix of technologies across graphs, as in the figure (VNF1..VNFn over
  // different drivers + NNF).
  const std::optional<virt::BackendKind> hints[] = {
      virt::BackendKind::kNative, virt::BackendKind::kDocker,
      std::nullopt,  // scheduler decides (-> native, shared)
      virt::BackendKind::kDpdk,   virt::BackendKind::kVm,
      std::nullopt,               virt::BackendKind::kDocker,
      virt::BackendKind::kNative,
  };

  int deployed = 0;
  for (int i = 0; i < kGraphs; ++i) {
    // Distinct VLANs keep the endpoint classification rules disjoint.
    nffg::NfFg graph = bench::ipsec_cpe_graph("g" + std::to_string(i),
                                              hints[i % 8]);
    graph.endpoints[0].vlan = static_cast<std::uint16_t>(100 + i);
    graph.endpoints[1].vlan = static_cast<std::uint16_t>(200 + i);
    auto report = node.orchestrator().deploy(graph);
    if (!report) {
      std::printf("graph g%d: FAILED (%s)\n", i,
                  report.status().to_string().c_str());
      continue;
    }
    ++deployed;
    const auto& placement = report->placements.at(0);
    std::printf("graph g%d: backend=%-7s shared=%d  rules=%zu  "
                "boot=%7.1f ms  (%s)\n",
                i, std::string(virt::backend_name(placement.backend)).c_str(),
                placement.reused_shared_instance ? 1 : 0,
                report->flow_rules_installed,
                static_cast<double>(placement.boot_time) / 1e6,
                placement.reason.c_str());
  }

  std::printf("\n--- Architecture footprint ---\n");
  std::printf("LSIs (base + per-graph):      %zu (expect %d)\n",
              node.network().lsi_count(), deployed + 1);
  std::printf("LSI-0 flow rules (classifier): %zu (expect 4/graph)\n",
              node.network().base_lsi().flow_table().size());
  std::printf("deployments tracked:           %zu\n",
              node.compute().total_deployments());
  std::printf("network namespaces:            %zu (root + NNF instances)\n",
              node.namespaces().count());

  std::printf("\ncompute-manager dispatches per driver:\n");
  for (const auto& [kind, count] : node.compute().dispatch_counts()) {
    std::printf("  %-7s: %llu\n",
                std::string(virt::backend_name(kind)).c_str(),
                static_cast<unsigned long long>(count));
  }

  std::printf("\nNNF catalog status (sharing):\n");
  for (const std::string& type : node.catalog().types()) {
    const nnf::NnfStatus* status = node.catalog().status_of(type);
    std::printf("  %-9s: instances=%zu serving_graphs=%zu\n", type.c_str(),
                status->running_instances, status->graphs.size());
  }

  std::printf("\nnode description (REST GET /node):\n%s\n",
              node.describe().dump_pretty().c_str());

  bench::JsonReport json_report("bench_fig1_architecture");
  json_report.mark_modelled();
  auto& row = json_report.add_metric("architecture_footprint",
                                     "graphs_deployed", deployed);
  row.extra.emplace_back("lsis",
                         static_cast<double>(node.network().lsi_count()));
  row.extra.emplace_back(
      "lsi0_flow_rules",
      static_cast<double>(node.network().base_lsi().flow_table().size()));
  row.extra.emplace_back(
      "deployments", static_cast<double>(node.compute().total_deployments()));
  row.extra.emplace_back("namespaces",
                         static_cast<double>(node.namespaces().count()));
  json_report.emit();
  return 0;
}
