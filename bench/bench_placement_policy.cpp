// Experiment A6 — placement-policy ablation: what does NNF support buy a
// CPE, end to end?
//
// Identical IPsec service graphs are deployed one by one onto a 1 GB CPE
// until the node refuses, under three scheduler policies:
//   * default       — the paper's policy (prefer NNF, share when possible)
//   * vnf-only      — a conventional NFV platform (no NNFs exist)
//   * fast-activate — minimize service turn-up latency
// Reported: how many customer graphs fit, RAM at capacity, and cumulative
// activation latency. This is the paper's value proposition as one number:
// the NNF-aware node hosts orders of magnitude more lightweight services.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_json.hpp"

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench main

namespace {

struct PolicyOutcome {
  int graphs = 0;
  double ram_mb = 0.0;
  double activation_ms = 0.0;
  std::string first_backend;
};

PolicyOutcome fill_node(core::PlacementPolicyKind policy, int cap) {
  core::UniversalNodeConfig config = bench::modelled_config();
  config.placement_policy = policy;
  core::UniversalNode node(config);
  PolicyOutcome outcome;
  for (int i = 0; i < cap; ++i) {
    nffg::NfFg graph = bench::ipsec_cpe_graph("g" + std::to_string(i),
                                              std::nullopt);
    graph.endpoints[0].vlan = static_cast<std::uint16_t>(100 + i);
    graph.endpoints[1].vlan = static_cast<std::uint16_t>(1500 + i);
    auto report = node.orchestrator().deploy(graph);
    if (!report) break;
    if (i == 0) {
      outcome.first_backend =
          std::string(virt::backend_name(report->placements[0].backend));
    }
    outcome.activation_ms +=
        static_cast<double>(report->ready_latency) / 1e6;
    ++outcome.graphs;
  }
  outcome.ram_mb =
      static_cast<double>(node.resources().ram().used()) / (1024.0 * 1024.0);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_cli(argc, argv);
  std::printf("=== A6: placement policies on a 1 GB CPE (IPsec graphs until "
              "full) ===\n\n");
  std::printf("%-14s | %7s | %10s | %14s | %s\n", "policy", "graphs",
              "RAM used", "cum. turn-up", "1st placement");
  std::printf("---------------+---------+------------+----------------+----"
              "-----------\n");

  struct Row {
    const char* name;
    core::PlacementPolicyKind kind;
    int cap;  // stop early for unbounded cases
  } rows[] = {
      {"default", core::PlacementPolicyKind::kDefault, 300},
      {"vnf-only", core::PlacementPolicyKind::kVnfOnly, 300},
      {"fast-activate", core::PlacementPolicyKind::kFastActivation, 300},
  };
  bench::JsonReport report("bench_placement_policy");
  report.mark_modelled();
  for (const Row& row : rows) {
    PolicyOutcome outcome =
        fill_node(row.kind, bench::smoke_mode() ? 5 : row.cap);
    std::printf("%-14s | %6d%s | %7.1f MB | %11.1f ms | %s\n", row.name,
                outcome.graphs, outcome.graphs >= row.cap ? "+" : " ",
                outcome.ram_mb, outcome.activation_ms,
                outcome.first_backend.c_str());
    auto& json_row = report.add_metric(std::string("policy_") + row.name,
                                       "graphs_deployed", outcome.graphs);
    json_row.extra.emplace_back("ram_mb", outcome.ram_mb);
    json_row.extra.emplace_back("cumulative_activation_ms",
                                outcome.activation_ms);
  }

  std::printf(
      "\nReadings:\n"
      "  * default: the first graph boots the NNF (19.4 MB); every further\n"
      "    graph is a 0.7 MB context — hundreds of customers fit, turn-up\n"
      "    stays tens of ms.\n"
      "  * vnf-only: each graph is a 24.2 MB container (or worse, a VM) —\n"
      "    the node fills after a few dozen graphs and turn-up accumulates\n"
      "    hundreds of ms per service.\n"
      "  * fast-activate coincides with default here: the shared NNF is\n"
      "    also the fastest activation.\n\n");
  report.emit();
  return 0;
}
